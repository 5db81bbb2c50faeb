package mperf

import (
	"fmt"
	"sort"
	"strings"

	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/roofline"
	"mperf/internal/tma"
)

// Collector is one pluggable analysis run by a Session. Implementations
// build whatever machine flavor they need from the session (raw for
// counting/sampling, instrumented for the two-phase roofline), execute
// the workload, and write their slice of the Profile.
//
// Machines are instantiated from shared immutable vm.Programs:
// collectors that need the same build flavor (stat, record and topdown
// all profile the raw build; workload data lives in per-machine
// memory, so no collector can perturb another) share one cached
// compile, and a fresh machine costs a memory copy, not a rebuild.
// The counting collectors, stat and topdown, measure nothing but one
// counting run of the raw build; within one Session.Run they share
// that run whenever the platform's PMU can count their events at once
// (see countingRun), since counting does not perturb the model. Every
// other collector gets its own machine. Collectors Release their
// machine once its counters are read, so the instance memory recycles
// through the program's pool.
type Collector interface {
	// Name is the registry key ("stat", "record", ...), recorded in
	// Profile.Collectors and used to attribute failures.
	Name() string
	// Collect runs the analysis and fills the profile. An error marks
	// this collector failed on this platform; the session continues
	// with the remaining collectors.
	Collect(s *Session, p *Profile) error
}

// collectorFactories maps registry names to constructors.
var collectorFactories = map[string]func() Collector{
	"stat":     func() Collector { return statCollector{} },
	"record":   func() Collector { return recordCollector{} },
	"roofline": func() Collector { return rooflineCollector{} },
	"topdown":  func() Collector { return topdownCollector{} },
}

// RegisterCollector adds a named collector constructor. It errors on
// duplicates.
func RegisterCollector(name string, f func() Collector) error {
	key := strings.ToLower(strings.TrimSpace(name))
	if _, ok := collectorFactories[key]; ok {
		return fmt.Errorf("mperf: collector %q already registered", key)
	}
	collectorFactories[key] = f
	return nil
}

// CollectorNames returns the registered collector names, sorted.
func CollectorNames() []string {
	names := make([]string, 0, len(collectorFactories))
	for n := range collectorFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collectors resolves collector names into instances.
func Collectors(names ...string) ([]Collector, error) {
	out := make([]Collector, 0, len(names))
	for _, name := range names {
		f, ok := collectorFactories[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("mperf: unknown collector %q (known: %s)",
				name, strings.Join(CollectorNames(), ", "))
		}
		out = append(out, f())
	}
	return out, nil
}

// MustCollectors is Collectors for statically-known names; it panics on
// unknown names.
func MustCollectors(names ...string) []Collector {
	cs, err := Collectors(names...)
	if err != nil {
		panic(err)
	}
	return cs
}

// statCollector counts the session's event set around one execution —
// the `miniperf stat` verb as a library.
type statCollector struct{}

func (statCollector) Name() string { return "stat" }

func (c statCollector) Collect(s *Session, p *Profile) error { return countAlone(s, c, p) }

func (statCollector) events(s *Session) ([]isa.EventCode, error) { return s.cfg.statEvents() }

// fill keeps only the session's events of the run's values: a shared
// run also counts its other members' events, and IPC comes from the
// stat set alone, so a set without cycles or instructions reports 0.
func (statCollector) fill(s *Session, p *Profile, res *miniperf.StatResult) error {
	evs, err := s.cfg.statEvents()
	if err != nil {
		return err
	}
	own := &miniperf.StatResult{Values: make(map[string]uint64, len(evs)), ElapsedSeconds: res.ElapsedSeconds}
	for _, ev := range evs {
		own.Values[ev.String()] = res.Values[ev.String()]
	}
	p.Events = own.Values
	p.ElapsedSeconds = own.ElapsedSeconds
	p.IPC = own.IPC()
	return nil
}

// recordCollector samples one execution with the overflow-group
// workaround and aggregates the hotspot table — `miniperf record`.
type recordCollector struct{}

func (recordCollector) Name() string { return "record" }

func (recordCollector) Collect(s *Session, p *Profile) error {
	m, err := s.NewMachine()
	if err != nil {
		return err
	}
	defer m.Release()
	tool, err := miniperf.Attach(m)
	if err != nil {
		return err
	}
	rec, err := tool.Record(miniperf.RecordOptions{FreqHz: s.cfg.SampleFreqHz},
		func() error { return s.spec.Run(m) })
	if err != nil {
		return err
	}
	p.Recording = rec
	p.SampleCount = len(rec.Samples)
	p.LostSamples = rec.Lost
	p.SamplingLeader = rec.LeaderLabel
	for _, h := range rec.Hotspots() {
		p.Hotspots = append(p.Hotspots, Hotspot{
			Function:     h.Function,
			TotalPct:     h.TotalPct,
			Cycles:       h.Cycles,
			Instructions: h.Instructions,
			IPC:          h.IPC,
		})
	}
	p.IPC = m.Hart().Core.Stats().IPC()
	return nil
}

// rooflineCollector compiles the workload through the platform's
// vectorizer pipeline with instrumentation, runs the two-phase
// workflow, and places every measured region on the platform's roofs.
type rooflineCollector struct{}

func (rooflineCollector) Name() string { return "roofline" }

func (rooflineCollector) Collect(s *Session, p *Profile) error {
	m, err := s.NewOptimizedMachine(true)
	if err != nil {
		return err
	}
	defer m.Release()
	args, err := s.spec.Args(m)
	if err != nil {
		return err
	}
	res, err := roofline.RunTwoPhase(m, s.spec.Entry, args)
	if err != nil {
		return err
	}
	plat := s.plat
	model := &roofline.Model{
		Platform: plat.Name,
		Compute: []roofline.ComputeCeiling{
			{Name: "theoretical peak", GFLOPS: plat.TheoreticalPeakGFLOPS},
		},
		Memory: []roofline.MemoryCeiling{
			{Name: "DRAM (model channel)",
				GiBps: plat.Core.Mem.DRAM.BytesPerCycle * plat.Core.FreqHz / (1 << 30)},
		},
	}
	out := &RooflineResult{Model: model}
	for _, pt := range res.Points() {
		model.AddPoint(pt)
		out.Points = append(out.Points, RooflinePoint{
			Name:       pt.Name,
			AI:         pt.AI,
			GFLOPS:     pt.GFLOPS,
			Source:     pt.Source,
			Bound:      model.Bound(pt),
			Efficiency: model.Efficiency(pt),
		})
	}
	out.PeakGFLOPS = model.PeakGFLOPS()
	out.MemoryGiBps = model.PeakGiBps()
	out.RidgeAI = model.Ridge()
	collectHierarchical(s, res, out)
	p.Roofline = out
	return nil
}

// collectHierarchical builds the L1/L2/DRAM extension from the
// per-level traffic the two-phase runner attributed during phase 1.
// It only appends to the result; the single-ceiling fields are already
// final. Both are pinned catalog-wide by the golden corpus
// (TestSuperblockInvariance).
func collectHierarchical(s *Session, res *roofline.RunResult, out *RooflineResult) {
	plat := s.plat
	freq := plat.Core.FreqHz
	toGiBps := func(bytesPerCycle float64) float64 {
		return bytesPerCycle * freq / (1 << 30)
	}
	hm := &roofline.Model{
		Platform: plat.Name,
		Compute: []roofline.ComputeCeiling{
			{Name: "theoretical peak", GFLOPS: plat.TheoreticalPeakGFLOPS},
		},
		Memory: []roofline.MemoryCeiling{
			{Name: "L1", GiBps: toGiBps(plat.Core.Mem.L1D.PeakBytesPerCycle())},
			{Name: "L2", GiBps: toGiBps(plat.Core.Mem.L2.PeakBytesPerCycle())},
			{Name: "DRAM", GiBps: plat.Core.Mem.DRAM.BytesPerCycle * freq / (1 << 30)},
		},
	}
	hier := &HierarchicalRoofline{}
	for _, r := range hm.Ridges() {
		var c *roofline.MemoryCeiling
		for i := range hm.Memory {
			if hm.Memory[i].Name == r.Name {
				c = &hm.Memory[i]
			}
		}
		hier.Ceilings = append(hier.Ceilings, HierarchicalCeiling{
			Level: r.Name, GiBps: c.GiBps, RidgeAI: r.AI,
		})
	}
	for _, l := range res.Loops {
		name := l.Meta.FuncName
		if l.Meta.Header != "" {
			name = fmt.Sprintf("%s:%s", l.Meta.FuncName, l.Meta.Header)
		}
		hp := HierarchicalPoint{Name: name, GFLOPS: l.GFLOPS}
		// The binding ceiling is the one this region utilizes hardest:
		// compute efficiency versus per-level bandwidth utilization.
		bound, bestUtil := "compute", 0.0
		if hm.PeakGFLOPS() > 0 {
			bestUtil = l.GFLOPS / hm.PeakGFLOPS()
		}
		levels := []struct {
			level string
			bytes uint64
		}{{"L1", l.L1Bytes}, {"L2", l.L2Bytes}, {"DRAM", l.DRAMBytes}}
		for i, lv := range levels {
			st := HierarchicalLevelStat{Level: lv.level, Bytes: lv.bytes}
			if lv.bytes > 0 {
				st.AI = float64(l.Counts.FPOps) / float64(lv.bytes)
				if l.Seconds > 0 {
					st.GiBps = float64(lv.bytes) / l.Seconds / (1 << 30)
				}
				// Zero-FLOP kernels have AI 0 at every level; they carry
				// bandwidth data in the JSON but cannot sit on a log-log
				// chart, so only FLOP-bearing points are plotted.
				if st.AI > 0 {
					hm.AddPoint(roofline.Point{
						Name:   fmt.Sprintf("%s @%s", name, lv.level),
						AI:     st.AI,
						GFLOPS: l.GFLOPS,
						Source: "miniperf (IR)",
					})
				}
			}
			if ceil := hm.Memory[i].GiBps; ceil > 0 && st.GiBps/ceil > bestUtil {
				bestUtil = st.GiBps / ceil
				bound = lv.level
			}
			hp.Levels = append(hp.Levels, st)
		}
		hp.Bound = bound
		hier.Points = append(hier.Points, hp)
	}
	out.Hierarchical = hier
	out.HierModel = hm
}

// topdownCollector counts the level-1 TMA event set and computes the
// slot breakdown — `miniperf topdown`.
type topdownCollector struct{}

func (topdownCollector) Name() string { return "topdown" }

func (c topdownCollector) Collect(s *Session, p *Profile) error { return countAlone(s, c, p) }

func (topdownCollector) events(s *Session) ([]isa.EventCode, error) {
	if err := tma.Supported(s.plat); err != nil {
		return nil, err
	}
	return tma.Events(), nil
}

func (topdownCollector) fill(s *Session, p *Profile, res *miniperf.StatResult) error {
	b, err := tma.FromValues(s.plat, res.Values)
	if err != nil {
		return err
	}
	p.TopDown = &TopDownResult{
		Retiring:       b.Retiring,
		BadSpeculation: b.BadSpeculation,
		FrontendBound:  b.FrontendBound,
		BackendBound:   b.BackendBound,
		Dominant:       b.Dominant(),
		SlotsPerCycle:  b.SlotsPerCycle,
	}
	return nil
}
