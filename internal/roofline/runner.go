package roofline

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/mperfrt"
	"mperf/internal/vm"
	"mperf/pkg/mperf/faultinject"
)

// LoopResult is the two-phase measurement of one instrumented region.
type LoopResult struct {
	Meta ir.LoopMeta

	// BaselineCycles is the region's cost with instrumentation off
	// (phase 1) — the timing source.
	BaselineCycles uint64

	// Counts are the IR-level metrics from the instrumented clone. The
	// instrumented phase runs untimed, so its Cycles and traffic fields
	// are zero.
	Counts mperfrt.LoopStats

	// Derived metrics (from baseline time + instrumented counts).
	Seconds float64
	GFLOPS  float64
	GiBps   float64
	AI      float64

	// Per-cache-level traffic observed during the baseline (phase 1)
	// run via the runtime's traffic probe: bytes the region demanded of
	// L1D, moved on the L1<->L2 bus, and moved on the DRAM channel.
	// These feed the hierarchical roofline's per-level points.
	L1Bytes   uint64
	L2Bytes   uint64
	DRAMBytes uint64
}

// RunResult is the outcome of a two-phase session.
type RunResult struct {
	Loops []LoopResult
}

// LoopByFunc finds a loop result by the original function name.
func (r *RunResult) LoopByFunc(name string) (*LoopResult, bool) {
	for i := range r.Loops {
		if r.Loops[i].Meta.FuncName == name {
			return &r.Loops[i], true
		}
	}
	return nil, false
}

// RunTwoPhase drives the paper's Fig 2 workflow on an instrumented
// module: the workload runs once with instrumentation disabled
// (baseline timing) and once enabled (metric collection); the results
// are correlated per region. The workload must be deterministic across
// runs — limitation four of §4.4 — and a region whose invocation count
// differs between the runs is rejected.
//
// Only phase 1 is timed, and it runs on m. Phase 2 counts FLOPs and
// bytes from the IR, reads nothing phase 1 produces and nothing reads
// its time, so it runs functionally (vm.RunFunctional) at the same
// time as phase 1, on a sibling instance of m's program (vm.Sibling)
// that starts from m's data: like the real workflow's two process
// executions of one binary on one input. A roofline's wall time is
// thus phase 1's. The sibling is released after both phases finish,
// folding its step and coverage counters into m, so m.Steps() counts
// both runs. Each phase gets the step budget that remains when
// RunTwoPhase starts. A baseline failure takes precedence over an
// instrumented one, and a panic in phase 2 other than a trap is raised
// again on the caller's goroutine.
func RunTwoPhase(m *vm.Machine, entry string, args []uint64) (*RunResult, error) {
	// Phase 2: instrumented, untimed, on the sibling.
	sib := m.Sibling()
	counted := mperfrt.New(nil)
	counted.SetInstrumented(true)
	sib.SetRuntime(counted)
	var (
		countErr error
		panicked any
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		if faultinject.Fire(faultinject.CountPanic) {
			panic(faultinject.CountPanic + " armed")
		}
		_, countErr = sib.RunFunctional(entry, args...)
	}()
	// Join and release on every path out, a phase-1 panic included;
	// done is closed, so the receive after phase 1 does not block here.
	defer func() {
		<-done
		sib.Release()
	}()

	// Phase 1: baseline. It starts with cold caches, as a separate
	// process execution of the real workflow would. Per-level
	// traffic is attributed here, on the faithful (uninstrumented) run.
	timed := mperfrt.New(func() uint64 { return m.Hart().Core.Cycles() })
	// The traffic probe reads the hierarchy's cumulative per-level byte
	// counters; the runtime snapshots them around each activation. Pure
	// observation: the execution path is identical with or without it.
	hier := m.Hart().Core.Mem()
	timed.SetTrafficProbe(func() (uint64, uint64, uint64) {
		return hier.L1Bytes, hier.L2Bytes, hier.DRAM().Bytes
	})
	m.SetRuntime(timed)
	hier.Reset()
	_, baseErr := m.Run(entry, args...)

	<-done
	if baseErr != nil {
		return nil, fmt.Errorf("roofline: baseline run: %w", baseErr)
	}
	if panicked != nil {
		panic(panicked)
	}
	if countErr != nil {
		return nil, fmt.Errorf("roofline: instrumented run: %w", countErr)
	}
	return correlate(m.Module().LoopMetaByID, m.FreqHz(), timed.All(), counted.All())
}

// correlate joins phase 1's per-region timing and traffic with phase
// 2's per-region counts. Regions without loop metadata are skipped.
// Every other region must have been entered equally often in both
// phases, or its counts would be set against the wrong time.
func correlate(metaByID func(int64) (ir.LoopMeta, bool), freq float64,
	timed, counted []*mperfrt.LoopStats) (*RunResult, error) {
	baseline, counts := byLoopID(timed), byLoopID(counted)
	for _, phase := range [][]*mperfrt.LoopStats{timed, counted} {
		for _, st := range phase {
			meta, ok := metaByID(st.LoopID)
			if n1, n2 := baseline[st.LoopID].Invocations, counts[st.LoopID].Invocations; ok && n1 != n2 {
				return nil, fmt.Errorf("roofline: region %d (%s) entered %d times in phase 1 and %d in phase 2; workload not deterministic",
					st.LoopID, meta.FuncName, n1, n2)
			}
		}
	}
	res := &RunResult{}
	for _, st := range counted {
		meta, ok := metaByID(st.LoopID)
		if !ok {
			continue
		}
		base := baseline[st.LoopID]
		lr := LoopResult{
			Meta:           meta,
			BaselineCycles: base.Cycles,
			Counts:         *st,
			Seconds:        float64(base.Cycles) / freq,
			L1Bytes:        base.L1Bytes,
			L2Bytes:        base.L2Bytes,
			DRAMBytes:      base.DRAMBytes,
		}
		if lr.Seconds > 0 {
			lr.GFLOPS = float64(st.FPOps) / lr.Seconds / 1e9
			lr.GiBps = float64(st.Bytes()) / lr.Seconds / (1 << 30)
		}
		lr.AI = st.ArithmeticIntensity()
		res.Loops = append(res.Loops, lr)
	}
	return res, nil
}

// byLoopID indexes one phase's region aggregates by loop ID; a region
// the phase never entered reads as the zero LoopStats.
func byLoopID(sts []*mperfrt.LoopStats) map[int64]mperfrt.LoopStats {
	out := make(map[int64]mperfrt.LoopStats, len(sts))
	for _, st := range sts {
		out[st.LoopID] = *st
	}
	return out
}

// Points converts loop results to model points labelled with the
// miniperf methodology.
func (r *RunResult) Points() []Point {
	out := make([]Point, 0, len(r.Loops))
	for _, l := range r.Loops {
		name := l.Meta.FuncName
		if l.Meta.Header != "" {
			name = fmt.Sprintf("%s:%s", l.Meta.FuncName, l.Meta.Header)
		}
		out = append(out, Point{Name: name, AI: l.AI, GFLOPS: l.GFLOPS, Source: "miniperf (IR)"})
	}
	return out
}
