package roofline

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"mperf/internal/ir"
	"mperf/internal/mperfrt"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
)

func testModel() *Model {
	return &Model{
		Platform: "test",
		Compute:  []ComputeCeiling{{Name: "peak", GFLOPS: 25.6}},
		Memory:   []MemoryCeiling{{Name: "dram", GiBps: 4.7}},
	}
}

func TestAttainableAndRidge(t *testing.T) {
	m := testModel()
	bwGBs := 4.7 * (1 << 30) / 1e9
	// Deep in the memory-bound regime the bound is ai×bw.
	if got, want := m.Attainable(0.1), 0.1*bwGBs; math.Abs(got-want) > 1e-9 {
		t.Errorf("attainable(0.1) = %g, want %g", got, want)
	}
	// Far right it is the compute peak.
	if got := m.Attainable(100); got != 25.6 {
		t.Errorf("attainable(100) = %g, want 25.6", got)
	}
	ridge := m.Ridge()
	if math.Abs(m.Attainable(ridge)-25.6) > 0.1 {
		t.Errorf("attainable at ridge %g should meet the peak", ridge)
	}
	if m.Bound(Point{AI: ridge / 2}) != "memory-bound" {
		t.Error("below-ridge point must be memory-bound")
	}
	if m.Bound(Point{AI: ridge * 2}) != "compute-bound" {
		t.Error("above-ridge point must be compute-bound")
	}
}

func TestEfficiency(t *testing.T) {
	m := testModel()
	p := Point{AI: 100, GFLOPS: 12.8}
	if e := m.Efficiency(p); math.Abs(e-0.5) > 1e-9 {
		t.Errorf("efficiency = %g, want 0.5", e)
	}
}

func TestSummaryAndPlots(t *testing.T) {
	m := testModel()
	m.AddPoint(Point{Name: "kernel", AI: 0.25, GFLOPS: 1.58, Source: "miniperf (IR)"})
	s := m.Summary()
	for _, want := range []string{"kernel", "25.6", "memory-bound", "miniperf"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	a := m.ASCIIPlot(80, 16)
	if !strings.Contains(a, "A: kernel") {
		t.Errorf("ASCII plot missing point legend:\n%s", a)
	}
	svg := m.SVGPlot(400, 300)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "kernel") {
		t.Error("SVG plot malformed")
	}
}

// buildDotMachine assembles an instrumented dot-product on a platform.
func buildDotMachine(t *testing.T, n int) *vm.Machine {
	t.Helper()
	mod := ir.NewModule("dp")
	workloads.BuildDot(mod)
	mod.NewGlobal("da", ir.F32, n)
	mod.NewGlobal("db", ir.F32, n)
	if _, err := passes.RunPipeline(mod, passes.PipelineOptions{
		Profile: passes.VecNone, Interleave: true, Instrument: true,
	}); err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	workloads.SeedF32(m, "da", n)
	workloads.SeedF32(m, "db", n)
	return m
}

func TestRunTwoPhaseOnDot(t *testing.T) {
	const n = 4096
	m := buildDotMachine(t, n)
	da, _ := m.GlobalAddr("da")
	db, _ := m.GlobalAddr("db")
	res, err := RunTwoPhase(m, "dot", []uint64{da, db, uint64(n)})
	if err != nil {
		t.Fatal(err)
	}
	lr, ok := res.LoopByFunc("dot")
	if !ok {
		t.Fatal("dot region not measured")
	}
	// IR counts: 2n flops (fma=2), 8n bytes loaded.
	if lr.Counts.FPOps != 2*n {
		t.Errorf("FPOps = %d, want %d", lr.Counts.FPOps, 2*n)
	}
	if lr.Counts.BytesLoaded != 8*n {
		t.Errorf("BytesLoaded = %d, want %d", lr.Counts.BytesLoaded, 8*n)
	}
	if lr.AI < 0.24 || lr.AI > 0.26 {
		t.Errorf("AI = %.3f, want 0.25", lr.AI)
	}
	if lr.BaselineCycles == 0 || lr.GFLOPS <= 0 {
		t.Error("timing missing")
	}
	if lr.BaselineCycles != 56857 {
		t.Errorf("baseline cycles = %d, want 56857", lr.BaselineCycles)
	}
	// Phase 2 ran on a sibling machine whose steps fold into m on
	// release: the total is what both phases counted when they ran
	// one after the other on m.
	if got := m.Steps(); got != 35894 {
		t.Errorf("steps after both phases = %d, want 35894", got)
	}
	// Instrumentation adds overhead; two-phase keeps the timing from
	// the baseline run (§4.4 mitigation). Phase 2 runs untimed, so the
	// overhead is measured by a timed instrumented run of its own; the
	// functional phase 2 left the core as phase 1 did, so this is the
	// run a timed phase 2 would have been.
	rt := mperfrt.New(func() uint64 { return m.Hart().Core.Cycles() })
	m.SetRuntime(rt)
	m.Hart().Core.Mem().Reset()
	rt.SetInstrumented(true)
	if _, err := m.Run("dot", da, db, uint64(n)); err != nil {
		t.Fatal(err)
	}
	inst, ok := rt.Stats(lr.Meta.ID)
	if !ok {
		t.Fatal("dot region not reached in the timed instrumented run")
	}
	if inst.Cycles != 57613 {
		t.Errorf("instrumented cycles = %d, want 57613", inst.Cycles)
	}
	if inst.Cycles < lr.BaselineCycles {
		t.Errorf("instrumented run took %d cycles, baseline %d — instrumented run cannot be faster",
			inst.Cycles, lr.BaselineCycles)
	}
	pts := res.Points()
	if len(pts) != 1 || pts[0].Source != "miniperf (IR)" {
		t.Errorf("points wrong: %+v", pts)
	}
}

// TestRunTwoPhaseJoinsSiblingOnBaselineTrap: when phase 1 traps,
// RunTwoPhase still waits for the concurrent phase 2, releases its
// sibling machine (folding its steps into m) and reports the baseline
// error first, leaving no goroutine behind.
func TestRunTwoPhaseJoinsSiblingOnBaselineTrap(t *testing.T) {
	const n, budget = 4096, 2000
	m := buildDotMachine(t, n)
	m.MaxSteps = budget
	da, _ := m.GlobalAddr("da")
	db, _ := m.GlobalAddr("db")
	before := runtime.NumGoroutine()
	_, err := RunTwoPhase(m, "dot", []uint64{da, db, uint64(n)})
	if err == nil || !strings.HasPrefix(err.Error(), "roofline: baseline run:") ||
		!strings.Contains(err.Error(), "step budget exceeded") {
		t.Fatalf("err = %v, want the baseline run's step-budget trap", err)
	}
	// Both phases ran to the budget; the second count can only come
	// from the released sibling.
	if got := m.Steps(); got <= 2*budget {
		t.Errorf("steps = %d, want both phases' (> %d): sibling not released into m", got, 2*budget)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d: phase 2 left behind", before, after)
	}
}

// TestCorrelateRejectsInvocationMismatch: a region entered a different
// number of times in the two phases cannot have its counts set against
// phase 1's time; neither can one only a single phase entered.
func TestCorrelateRejectsInvocationMismatch(t *testing.T) {
	meta := func(id int64) (ir.LoopMeta, bool) {
		return ir.LoopMeta{ID: id, FuncName: "kernel"}, id != 9
	}
	stats := func(invocations ...uint64) []*mperfrt.LoopStats {
		var out []*mperfrt.LoopStats
		for i, n := range invocations {
			if n > 0 {
				out = append(out, &mperfrt.LoopStats{LoopID: int64(i + 1), Invocations: n, Cycles: 1000, FPOps: 10 * n})
			}
		}
		return out
	}
	res, err := correlate(meta, 1e9, stats(3, 2), stats(3, 2))
	if err != nil || len(res.Loops) != 2 || res.Loops[0].Counts.FPOps != 30 || res.Loops[1].BaselineCycles != 1000 {
		t.Fatalf("matching phases: res=%+v err=%v", res, err)
	}
	for _, tc := range []struct {
		name           string
		timed, counted []*mperfrt.LoopStats
	}{
		{"3 then 4", stats(3, 2), stats(4, 2)},
		{"4 then 3", stats(4, 2), stats(3, 2)},
		{"phase 2 only", stats(3), stats(3, 2)},
		{"phase 1 only", stats(3, 2), stats(3)},
	} {
		if _, err := correlate(meta, 1e9, tc.timed, tc.counted); err == nil ||
			!strings.Contains(err.Error(), "workload not deterministic") {
			t.Errorf("%s: err = %v, want a non-determinism rejection", tc.name, err)
		}
	}
	// Regions without loop metadata are skipped, not correlated.
	unlisted := []*mperfrt.LoopStats{{LoopID: 9, Invocations: 1}}
	if res, err := correlate(meta, 1e9, unlisted, nil); err != nil || len(res.Loops) != 0 {
		t.Errorf("region without metadata: res=%+v err=%v", res, err)
	}
}

func TestPMUEstimateRequiresCounterSupport(t *testing.T) {
	// RISC-V platforms lack the FP-arith event family: the PMU-based
	// roofline is unavailable — the gap the paper's method fills.
	const n = 256
	mod := ir.NewModule("dp")
	workloads.BuildDot(mod)
	mod.NewGlobal("da", ir.F32, n)
	mod.NewGlobal("db", ir.F32, n)
	m, err := vm.New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	_, err = PMUEstimate(m, "dot", func() error { return nil })
	if err == nil || !strings.Contains(err.Error(), "PMU-based roofline unavailable") {
		t.Errorf("X60 PMU estimate: %v, want unavailability error", err)
	}
}

func TestPMUEstimateOnX86(t *testing.T) {
	const n = 4096
	mod := ir.NewModule("dp")
	workloads.BuildDot(mod)
	mod.NewGlobal("da", ir.F32, n)
	mod.NewGlobal("db", ir.F32, n)
	m, err := vm.New(platform.I5_1135G7(), mod)
	if err != nil {
		t.Fatal(err)
	}
	workloads.SeedF32(m, "da", n)
	workloads.SeedF32(m, "db", n)
	da, _ := m.GlobalAddr("da")
	db, _ := m.GlobalAddr("db")
	p, err := PMUEstimate(m, "dot", func() error {
		_, err := m.Run("dot", da, db, uint64(n))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.GFLOPS <= 0 || p.AI <= 0 {
		t.Errorf("PMU estimate empty: %+v", p)
	}
	if p.Source != "PMU counters" {
		t.Errorf("source = %q", p.Source)
	}
}
