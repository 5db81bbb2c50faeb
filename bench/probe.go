package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/roofline"
	"mperf/internal/tma"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/store"
)

// A probe measures the layers one catalog key passes through from
// outside: it calls each layer's public function in the order the
// session and its collectors call them, and times every call. A probe
// reading is one op's worth of each layer (zero for layers the key's
// ops never call), except for the compile-side layers, whose readings
// are what setup pays for the key.

// probeReps is how many times each key is probed; layer numbers are the
// medians.
const probeReps = 3

// statEventSet is the stat collector's default event set.
var statEventSet = []isa.EventCode{
	isa.EventCycles, isa.EventInstructions, isa.EventBranchInstructions,
	isa.EventBranchMisses, isa.EventCacheReferences, isa.EventCacheMisses,
}

// probe is one reading, by layer metric name. Fields whose name starts
// with "_" are intermediate sums the weighting turns into ratios.
type probe map[string]float64

// sweepProber and daemonProber are the workloads whose own layers the
// probe times as well.
type sweepProber interface {
	probeSweep(k int, p probe) error
}

type daemonProber interface {
	probeDaemon(k int, p probe) error
}

// probeKey returns the median reading of probeReps probes of key k.
func probeKey(e *env, w workload, k int, dir string) (probe, error) {
	reps := probeReps
	if e.quick {
		reps = 1
	}
	var reads []probe
	for rep := 0; rep < reps; rep++ {
		p := probe{}
		if err := probeOnce(e, k, dir, p); err != nil {
			return nil, fmt.Errorf("probe %s: %w", e.keys[k].ID(), err)
		}
		if sp, ok := w.(sweepProber); ok {
			if err := sp.probeSweep(k, p); err != nil {
				return nil, err
			}
		}
		if dp, ok := w.(daemonProber); ok {
			if err := dp.probeDaemon(k, p); err != nil {
				return nil, err
			}
		}
		reads = append(reads, p)
	}
	out := probe{}
	for name := range reads[0] {
		vals := make([]float64, len(reads))
		for i, r := range reads {
			vals[i] = r[name]
		}
		out[name] = median(vals)
	}
	return out, nil
}

func since(t time.Time) float64 { return ms(time.Since(t)) }

func probeOnce(e *env, k int, dir string, p probe) error {
	key := e.keys[k]
	sess, err := key.open(mperf.NewProgramCache())
	if err != nil {
		return err
	}
	spec, plat := sess.Workload(), sess.Platform()
	st, err := store.Open(filepath.Join(dir, "probe-store"))
	if err != nil {
		return err
	}
	needOpt := key.uses("roofline")
	needRaw := key.uses("stat") || key.uses("record") || key.uses("topdown")

	// Compile side: every program flavor the key's ops request.
	progs := map[bool]*vm.Program{}
	for _, optimize := range []bool{false, true} {
		if (optimize && !needOpt) || (!optimize && !needRaw) {
			continue
		}
		prog, err := compileTimed(spec, plat, optimize, p)
		if err != nil {
			return err
		}
		progs[optimize] = prog
		name := sess.ProgramKey(optimize, optimize).String()
		t := time.Now()
		payload, err := vm.EncodeArtifact(prog)
		if err != nil {
			return err
		}
		p["vm.encode_artifact_ms"] += since(t)
		p["store.artifact_kb"] += float64(len(payload)) / 1024
		t = time.Now()
		if err := st.Save(name, payload); err != nil {
			return err
		}
		p["store.save_ms"] += since(t)
		t = time.Now()
		if payload, err = st.Load(name); err != nil {
			return err
		}
		p["store.load_ms"] += since(t)
		t = time.Now()
		if _, err := vm.DecodeArtifact(payload); err != nil {
			return err
		}
		p["vm.decode_artifact_ms"] += since(t)
		p["cache.get_us"] += cacheGetUS(sess.ProgramKey(optimize, optimize), prog) * float64(collectorsOn(key, optimize))
	}
	raw := progs[false]
	if raw == nil {
		// Quiet runs and the overhead ratios are taken on the raw build
		// even where the key's ops only use the optimized one.
		if raw, err = spec.BuildProgram(plat, false, false); err != nil {
			return err
		}
	}

	machines := 0
	newMachine := func(prog *vm.Program) *vm.Machine {
		t := time.Now()
		m := vm.NewMachine(prog, plat)
		p["_instantiate_ms"] += since(t)
		machines++
		return m
	}
	release := func(m *vm.Machine) {
		t := time.Now()
		m.Release()
		p["_release_ms"] += since(t)
	}
	run := func(m *vm.Machine) func() error { return func() error { return spec.Run(m) } }

	m := newMachine(raw)
	t := time.Now()
	if err := spec.Run(m); err != nil {
		return err
	}
	p["vm.run_quiet_ms"] = since(t)
	p["_quiet_steps"] = float64(m.Steps())
	release(m)

	for _, c := range key.Collectors {
		switch c {
		case "stat":
			m := newMachine(raw)
			tool, err := miniperf.Attach(m)
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := tool.Stat(statEventSet, run(m)); err != nil {
				return err
			}
			p["miniperf.stat_ms"] += since(t)
			p["_stat_quiet_ms"] += p["vm.run_quiet_ms"]
			countSim(p, m)
			release(m)
		case "record":
			m := newMachine(raw)
			tool, err := miniperf.Attach(m)
			if err != nil {
				return err
			}
			t := time.Now()
			rec, err := tool.Record(miniperf.RecordOptions{FreqHz: sess.SampleFreq()}, run(m))
			if err != nil {
				return err
			}
			p["miniperf.record_ms"] += since(t)
			p["_record_quiet_ms"] += p["vm.run_quiet_ms"]
			p["miniperf.samples_per_op"] += float64(len(rec.Samples))
			p["miniperf.lost_samples"] += float64(rec.Lost)
			t = time.Now()
			rec.Hotspots()
			p["miniperf.hotspots_ms"] += since(t)
			t = time.Now()
			g := rec.FlameGraph(plat.Name, miniperf.MetricCycles)
			_ = g.ASCII(100) + g.SVG(1000)
			p["flamegraph.build_ms"] += since(t)
			countSim(p, m)
			release(m)
		case "topdown":
			m := newMachine(raw)
			t := time.Now()
			if _, err := tma.Measure(m, run(m)); err != nil {
				return err
			}
			p["tma.measure_ms"] += since(t)
			p["_tma_quiet_ms"] += p["vm.run_quiet_ms"]
			countSim(p, m)
			release(m)
		case "roofline":
			m := newMachine(progs[true])
			args, err := spec.Args(m)
			if err != nil {
				return err
			}
			t := time.Now()
			res, err := roofline.RunTwoPhase(m, spec.Entry, args)
			if err != nil {
				return err
			}
			p["roofline.two_phase_ms"] += since(t)
			t = time.Now()
			modelAndPlot(plat, res)
			p["roofline.model_ms"] += since(t)
			countSim(p, m)
			release(m)
		}
	}
	p["vm.instantiate_us"] = 1000 * p["_instantiate_ms"] / float64(machines)
	p["vm.release_us"] = 1000 * p["_release_ms"] / float64(machines)

	t = time.Now()
	js, err := profileJSON(e.refs[k].profile)
	if err != nil {
		return err
	}
	p["mperf.encode_ms"] = since(t)
	p["mperf.profile_kb"] = float64(len(js)) / 1024
	return nil
}

// compileTimed is Spec.BuildProgram with each stage timed into p.
func compileTimed(spec *workloads.Spec, plat *platform.Platform, optimize bool, p probe) (*vm.Program, error) {
	t := time.Now()
	mod := ir.NewModule(spec.Name)
	if err := spec.Build(mod); err != nil {
		return nil, err
	}
	p["workloads.build_ms"] += since(t)
	if optimize {
		t = time.Now()
		profile, err := passes.ProfileByName(plat.VectorizerProfile)
		if err != nil {
			return nil, err
		}
		if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
			Profile: profile, Lanes: plat.Core.VectorLanes32, Interleave: true, Instrument: true,
		}); err != nil {
			return nil, err
		}
		p["passes.pipeline_ms"] += since(t)
	}
	t = time.Now()
	prog, err := vm.Compile(mod)
	if err != nil {
		return nil, err
	}
	p["vm.compile_ms"] += since(t)
	if spec.Seed != nil {
		t = time.Now()
		m := vm.NewMachine(prog, plat)
		if err := spec.Seed(m); err != nil {
			return nil, err
		}
		if err := prog.SetDataImage(m.SnapshotData()); err != nil {
			return nil, err
		}
		m.Release()
		p["workloads.seed_ms"] += since(t)
	}
	return prog, nil
}

// cacheGetUS is the mean cost of a ProgramCache.Get served from memory.
func cacheGetUS(key mperf.ProgramKey, prog *vm.Program) float64 {
	const n = 2000
	cache := mperf.NewProgramCache()
	build := func() (*vm.Program, error) { return prog, nil }
	_, _, _ = cache.Get(key, build)
	t := time.Now()
	for i := 0; i < n; i++ {
		_, _, _ = cache.Get(key, build)
	}
	return float64(time.Since(t)) / n / float64(time.Microsecond)
}

// collectorsOn counts the key's collectors that request the given flavor.
func collectorsOn(key opKey, optimized bool) int {
	n := 0
	for _, c := range key.Collectors {
		if (c == "roofline") == optimized {
			n++
		}
	}
	return n
}

func countSim(p probe, m *vm.Machine) {
	p["sim.instrs_per_op"] += float64(m.Steps())
	p["sim.cycles_per_op"] += float64(m.Cycles())
}

// modelAndPlot places two-phase results on the platform's roofline
// model and renders it, as the roofline collector and the fig4 op do.
func modelAndPlot(plat *platform.Platform, res *roofline.RunResult) string {
	model := &roofline.Model{
		Platform: plat.Name,
		Compute:  []roofline.ComputeCeiling{{Name: "theoretical peak", GFLOPS: plat.TheoreticalPeakGFLOPS}},
		Memory: []roofline.MemoryCeiling{{Name: "DRAM (model channel)",
			GiBps: plat.Core.Mem.DRAM.BytesPerCycle * plat.Core.FreqHz / (1 << 30)}},
	}
	for _, pt := range res.Points() {
		model.AddPoint(pt)
		model.Bound(pt)
		model.Efficiency(pt)
	}
	model.Ridges()
	return model.ASCIIPlot(100, 20)
}

// probeSweep times the op itself (one-cell RunSweep on a fresh cache
// over the filled store) against an in-process Session.Run of the same
// key in the same cache state.
func (w *membound) probeSweep(k int, p probe) error {
	key := w.keys[k]
	dir, err := os.MkdirTemp(w.workDir, "probe-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(w.storeDir); err != nil {
		return err
	}
	spec := mperf.MatrixSpec{Platforms: []string{key.Platform}, Workloads: []string{key.Workload},
		Collectors: key.Collectors, Options: append(memOptions(key.Elems), mperf.WithProgramCache(cache))}
	t := time.Now()
	if _, err := mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{Dir: dir}); err != nil {
		return err
	}
	cell := since(t)

	cache = mperf.NewProgramCache()
	if err := cache.SetArtifactDir(w.storeDir); err != nil {
		return err
	}
	t = time.Now()
	sess, err := key.open(cache)
	if err != nil {
		return err
	}
	if _, err := sess.Run(key.collectors()...); err != nil {
		return err
	}
	p["sweep.cell_ms"] = cell
	p["sweep.cell_overhead_ms"] = cell - since(t)
	return nil
}

// probeDaemon times one request three ways on the warm daemon: the
// service itself (RunStream in process), through the server's queue and
// worker (Server.Profile), and over HTTP (client.Profile).
func (w *daemon) probeDaemon(k int, p probe) error {
	key := w.keys[k]
	ctx := context.Background()
	sess, err := key.open(w.cache)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := sess.RunStream(ctx, nil, key.collectors()...); err != nil {
		return err
	}
	service := since(t)

	cs := w.srv.OpenSession("probe")
	defer w.srv.CloseSession(cs.ID())
	t = time.Now()
	if _, err := w.srv.Profile(ctx, cs, w.request(k), nil); err != nil {
		return err
	}
	server := since(t)

	t = time.Now()
	if _, err := w.cl.Profile(ctx, w.request(k), nil); err != nil {
		return err
	}
	http := since(t)
	p["mperfd.service_ms"] = service
	p["mperfd.server_ms"] = server
	p["mperfd.queue_ms"] = server - service
	p["mperfd.transport_ms"] = http - server
	return nil
}
