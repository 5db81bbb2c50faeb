package roofline

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/mperfrt"
	"mperf/internal/vm"
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
// runs — limitation four of §4.4.
//
// Only phase 1 is timed. Phase 2 counts FLOPs and bytes from the IR
// and nothing reads its time, so it runs functionally
// (vm.RunFunctional): the core is left exactly as phase 1 left it.
// Both phases execute on the one machine passed in, so callers pay a
// single instantiation; the machine itself typically comes off a cached
// instrumented vm.Program, which replaces the per-phase rebuilds of the
// pre-cache workflow with one compile per (platform pipeline, workload)
// pair.
func RunTwoPhase(m *vm.Machine, entry string, args []uint64) (*RunResult, error) {
	rt := mperfrt.New(func() uint64 { return m.Hart().Core.Cycles() })
	// The traffic probe reads the hierarchy's cumulative per-level byte
	// counters; the runtime snapshots them around each activation. Pure
	// observation: the execution path is identical with or without it.
	hier := m.Hart().Core.Mem()
	rt.SetTrafficProbe(func() (uint64, uint64, uint64) {
		return hier.L1Bytes, hier.L2Bytes, hier.DRAM().Bytes
	})
	m.SetRuntime(rt)

	// Phase 1: baseline. It starts with cold caches, as a separate
	// process execution of the real workflow would. Per-level
	// traffic is attributed here, on the faithful (uninstrumented) run.
	m.Hart().Core.Mem().Reset()
	rt.SetInstrumented(false)
	if _, err := m.Run(entry, args...); err != nil {
		return nil, fmt.Errorf("roofline: baseline run: %w", err)
	}
	baseline := make(map[int64]uint64)
	invocations := make(map[int64]uint64)
	traffic := make(map[int64][3]uint64)
	for _, st := range rt.All() {
		baseline[st.LoopID] = st.Cycles
		invocations[st.LoopID] = st.Invocations
		traffic[st.LoopID] = [3]uint64{st.L1Bytes, st.L2Bytes, st.DRAMBytes}
	}

	// Phase 2: instrumented, untimed.
	rt.Reset()
	rt.SetInstrumented(true)
	if _, err := m.RunFunctional(entry, args...); err != nil {
		return nil, fmt.Errorf("roofline: instrumented run: %w", err)
	}

	freq := m.FreqHz()
	res := &RunResult{}
	for _, st := range rt.All() {
		meta, ok := m.Module().LoopMetaByID(st.LoopID)
		if !ok {
			continue
		}
		base, sawBaseline := baseline[st.LoopID]
		if !sawBaseline {
			// Region not reached in phase 1: non-deterministic control
			// flow; report it rather than fabricate a time.
			return nil, fmt.Errorf("roofline: region %d (%s) ran only in phase 2; workload not deterministic",
				st.LoopID, meta.FuncName)
		}
		tr := traffic[st.LoopID]
		lr := LoopResult{
			Meta:           meta,
			BaselineCycles: base,
			Counts:         *st,
			Seconds:        float64(base) / freq,
			L1Bytes:        tr[0],
			L2Bytes:        tr[1],
			DRAMBytes:      tr[2],
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
