package vm

import (
	"math"
	"strings"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/kernel"
	"mperf/internal/mperfrt"
	"mperf/internal/passes"
	"mperf/internal/platform"
)

// buildSumModule creates a module with global @data and
// f32 @sum(ptr, i64) adding up n elements.
func buildSumModule(n int) *ir.Module {
	m := ir.NewModule("t")
	m.NewGlobal("data", ir.F32, n)
	f := m.NewFunc("sum", ir.F32, ir.NewParam("a", ir.Ptr), ir.NewParam("n", ir.I64))
	f.SourceFile = "sum.c"
	f.SourceLine = 1
	f.SetHint("trip_multiple.loop", 16)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.F32)
	p := b.GEP(f.Params[0], i, 4)
	v := b.Load(ir.F32, p)
	s := b.FAdd(acc, v)
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	c := b.ICmp(ir.PredLT, inext, f.Params[1])
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	ir.AddIncoming(acc, ir.ConstFloat(ir.F32, 0), entry)
	ir.AddIncoming(acc, s, loop)
	b.SetBlock(exit)
	b.Ret(s)
	return m
}

func fillData(t *testing.T, m *Machine, name string, n int) float64 {
	t.Helper()
	addr, err := m.GlobalAddr(name)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < n; i++ {
		v := float32(i%7) * 0.25
		if err := m.WriteF32(addr+uint64(i*4), v); err != nil {
			t.Fatal(err)
		}
		want += float64(v)
	}
	return want
}

func runSum(t *testing.T, m *Machine, n int) float32 {
	t.Helper()
	addr, _ := m.GlobalAddr("data")
	bits, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	return math.Float32frombits(uint32(bits))
}

func TestScalarSumExecutes(t *testing.T) {
	const n = 256
	mod := buildSumModule(n)
	m, err := New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	want := fillData(t, m, "data", n)
	got := runSum(t, m, n)
	if math.Abs(float64(got)-want) > 1e-3 {
		t.Errorf("sum = %f, want %f", got, want)
	}
	st := m.Hart().Core.Stats()
	if st.Instret == 0 || st.Cycles == 0 {
		t.Error("execution did not charge the core model")
	}
	if st.Flops != n {
		t.Errorf("flops = %d, want %d", st.Flops, n)
	}
	if st.Loads != n {
		t.Errorf("loads = %d, want %d", st.Loads, n)
	}
}

func TestRecursiveCall(t *testing.T) {
	// fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
	mod := ir.NewModule("t")
	f := mod.NewFunc("fib", ir.I64, ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	rec := f.NewBlock("rec")
	base := f.NewBlock("base")
	b.SetBlock(entry)
	c := b.ICmp(ir.PredLT, f.Params[0], ir.ConstInt(ir.I64, 2))
	b.CondBr(c, base, rec)
	b.SetBlock(base)
	b.Ret(f.Params[0])
	b.SetBlock(rec)
	n1 := b.Sub(f.Params[0], ir.ConstInt(ir.I64, 1))
	n2 := b.Sub(f.Params[0], ir.ConstInt(ir.I64, 2))
	r1 := b.Call(f, n1)
	r2 := b.Call(f, n2)
	sum := b.Add(r1, r2)
	b.Ret(sum)

	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run("fib", 15)
	if err != nil {
		t.Fatal(err)
	}
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

// TestVectorCallArguments pins that vector arguments reach the
// callee's vector registers: the instrumentation pass outlines loops
// whose hoisted vector accumulators become vector parameters (i5
// dot). @dotk(a, k, b) returns k·Σ a[l]·b[l] over f32x8 vectors loaded
// from memory, and @drive calls it twice with the vectors in different
// argument positions, so a stale scratch slot would show.
func TestVectorCallArguments(t *testing.T) {
	const lanes = 8
	vec := ir.VecOf(ir.F32, lanes)
	mod := ir.NewModule("t")
	mod.NewGlobal("va", ir.F32, lanes)
	mod.NewGlobal("vb", ir.F32, lanes)

	dotk := mod.NewFunc("dotk", ir.F32,
		ir.NewParam("a", vec), ir.NewParam("k", ir.F32), ir.NewParam("b", vec))
	b := ir.NewBuilder(dotk)
	b.NewBlock("entry")
	sum := b.Reduce(b.FMul(dotk.Params[0], dotk.Params[2]))
	b.Ret(b.FMul(sum, dotk.Params[1]))

	drive := mod.NewFunc("drive", ir.F32, ir.NewParam("pa", ir.Ptr), ir.NewParam("pb", ir.Ptr))
	b = ir.NewBuilder(drive)
	b.NewBlock("entry")
	va := b.Load(vec, drive.Params[0])
	vb := b.Load(vec, drive.Params[1])
	r1 := b.Call(dotk, va, ir.ConstFloat(ir.F32, 2), vb)
	r2 := b.Call(dotk, vb, ir.ConstFloat(ir.F32, 1), vb)
	b.Ret(b.FAdd(r1, r2))

	m, err := New(platform.I5_1135G7(), mod)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := m.GlobalAddr("va")
	pb, _ := m.GlobalAddr("vb")
	var dotAB, dotBB float32
	for l := 0; l < lanes; l++ {
		x, y := float32(l+1), float32(2*l-3)
		m.WriteF32(pa+uint64(4*l), x)
		m.WriteF32(pb+uint64(4*l), y)
		dotAB += x * y
		dotBB += y * y
	}
	want := 2*dotAB + dotBB
	run := func() float32 {
		bits, err := m.Run("drive", pa, pb)
		if err != nil {
			t.Fatal(err)
		}
		return math.Float32frombits(uint32(bits))
	}
	if got := run(); got != want {
		t.Errorf("drive = %v, want %v", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { run() }); allocs > 0 {
		t.Errorf("calls with vector arguments allocated %.1f times, want 0", allocs)
	}
	if _, err := m.Run("dotk", 0, 0, 0); err == nil || !strings.Contains(err.Error(), "vector arguments") {
		t.Errorf("Run of a function with vector parameters: err = %v", err)
	}
}

func TestSwitchDispatch(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("sw", ir.I64, ir.NewParam("x", ir.I64))
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	c10 := f.NewBlock("c10")
	c20 := f.NewBlock("c20")
	dflt := f.NewBlock("dflt")
	b.Switch(f.Params[0], dflt, []int64{1, 2}, []*ir.Block{c10, c20})
	b.SetBlock(c10)
	b.Ret(ir.ConstInt(ir.I64, 10))
	b.SetBlock(c20)
	b.Ret(ir.ConstInt(ir.I64, 20))
	b.SetBlock(dflt)
	b.Ret(ir.ConstInt(ir.I64, -1))

	m, err := New(platform.C910(), mod)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[uint64]int64{1: 10, 2: 20, 7: -1}
	for in, want := range cases {
		got, err := m.Run("sw", in)
		if err != nil {
			t.Fatal(err)
		}
		if int64(got) != want {
			t.Errorf("sw(%d) = %d, want %d", in, int64(got), want)
		}
	}
}

func TestVectorizedSumMatchesScalar(t *testing.T) {
	const n = 256
	// Scalar reference on one machine.
	scalarMod := buildSumModule(n)
	ms, err := New(platform.I5_1135G7(), scalarMod)
	if err != nil {
		t.Fatal(err)
	}
	want := fillData(t, ms, "data", n)
	scalarGot := runSum(t, ms, n)

	// Vectorized version on a fresh machine.
	vecMod := buildSumModule(n)
	f := vecMod.FuncByName("sum")
	if headers := passes.VectorizeFunction(f, passes.VecAggressive, 8); len(headers) != 1 {
		t.Fatalf("vectorization failed: %v", headers)
	}
	mv, err := New(platform.I5_1135G7(), vecMod)
	if err != nil {
		t.Fatal(err)
	}
	fillData(t, mv, "data", n)
	vecGot := runSum(t, mv, n)

	if math.Abs(float64(vecGot)-want) > 1e-2 {
		t.Errorf("vectorized sum = %f, want %f", vecGot, want)
	}
	if math.Abs(float64(vecGot-scalarGot)) > 1e-2 {
		t.Errorf("vector/scalar mismatch: %f vs %f", vecGot, scalarGot)
	}
	// The vector machine must retire far fewer instructions.
	if mv.Hart().Core.Stats().Instret*2 > ms.Hart().Core.Stats().Instret {
		t.Errorf("vectorized instret %d not much less than scalar %d",
			mv.Hart().Core.Stats().Instret, ms.Hart().Core.Stats().Instret)
	}
}

func TestVectorTrapsWithoutVectorUnit(t *testing.T) {
	const n = 256
	mod := buildSumModule(n)
	f := mod.FuncByName("sum")
	if headers := passes.VectorizeFunction(f, passes.VecAggressive, 8); len(headers) != 1 {
		t.Fatal("vectorization failed")
	}
	m, err := New(platform.U74(), mod) // no vector unit
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := m.GlobalAddr("data")
	_, err = m.Run("sum", addr, uint64(n))
	if err == nil || !strings.Contains(err.Error(), "illegal instruction") {
		t.Errorf("expected illegal-instruction trap, got %v", err)
	}
}

func TestInstrumentedPipelineEndToEnd(t *testing.T) {
	const n = 512
	mod := buildSumModule(n)
	res, err := passes.RunPipeline(mod, passes.PipelineOptions{
		Profile: passes.VecNone, Interleave: true, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instrumented) != 1 {
		t.Fatalf("instrumented %d loops, want 1", len(res.Instrumented))
	}
	m, err := New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	want := fillData(t, m, "data", n)
	rt := mperfrt.New(func() uint64 { return m.Hart().Core.Cycles() })
	m.SetRuntime(rt)

	// Phase 1: baseline.
	got := runSum(t, m, n)
	if math.Abs(float64(got)-want) > 1e-2 {
		t.Errorf("baseline sum = %f, want %f", got, want)
	}
	loopID := res.Instrumented[0].LoopID
	st, ok := rt.Stats(loopID)
	if !ok || st.Invocations != 1 {
		t.Fatalf("baseline run did not notify the runtime: %+v", st)
	}
	if st.Cycles == 0 {
		t.Error("baseline cycles not measured")
	}
	if st.FPOps != 0 {
		t.Error("baseline run must not count (instrumentation disabled)")
	}

	// Phase 2: instrumented.
	rt.SetInstrumented(true)
	got = runSum(t, m, n)
	if math.Abs(float64(got)-want) > 1e-2 {
		t.Errorf("instrumented sum = %f, want %f", got, want)
	}
	st, _ = rt.Stats(loopID)
	// The interleaved loop does n fadds (plus 1 combine outside the
	// region); bytes loaded = 4n.
	if st.FPOps != n {
		t.Errorf("counted FPOps = %d, want %d", st.FPOps, n)
	}
	if st.BytesLoaded != 4*n {
		t.Errorf("counted bytes loaded = %d, want %d", st.BytesLoaded, 4*n)
	}
	if st.BytesStored != 0 {
		t.Errorf("counted bytes stored = %d, want 0", st.BytesStored)
	}
}

func TestSamplingWorkaroundEndToEnd(t *testing.T) {
	// The full X60 story on a real workload: standard sampling fails,
	// the grouped workaround succeeds and yields symbolizable samples.
	const n = 4096
	mod := buildSumModule(n)
	m, err := New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	fillData(t, m, "data", n)
	k := m.Kernel()

	// Standard perf behaviour: EOPNOTSUPP.
	_, err = k.PerfEventOpen(kernel.EventAttr{
		Label: "cycles", Config: isa.EventCycles,
		SamplePeriod: 10_000, SampleType: kernel.SampleIP,
	}, -1)
	if err == nil {
		t.Fatal("sampling cycles must fail on X60")
	}

	// miniperf's workaround: u_mode_cycle leader + counting members.
	leader, err := k.PerfEventOpen(kernel.EventAttr{
		Label:        "u_mode_cycle",
		Config:       isa.RawEvent(isa.X60EventUModeCycle),
		SamplePeriod: 5000,
		SampleType:   kernel.SampleIP | kernel.SampleCallchain | kernel.SampleRead | kernel.SampleTime,
		ReadFormat:   kernel.FormatGroup,
		Disabled:     true,
	}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.PerfEventOpen(kernel.EventAttr{
		Label: "cycles", Config: isa.EventCycles, Disabled: true,
	}, leader); err != nil {
		t.Fatal(err)
	}
	if _, err := k.PerfEventOpen(kernel.EventAttr{
		Label: "instructions", Config: isa.EventInstructions, Disabled: true,
	}, leader); err != nil {
		t.Fatal(err)
	}
	if err := k.EnableGroup(leader); err != nil {
		t.Fatal(err)
	}
	runSum(t, m, n)
	k.DisableGroup(leader)

	rb, _ := k.Ring(leader)
	recs := rb.Drain()
	if len(recs) == 0 {
		t.Fatal("workaround produced no samples")
	}
	sym, ok := m.Symbolize(recs[0].IP)
	if !ok || sym != "sum" {
		t.Errorf("sample IP %#x symbolized to %q, want sum", recs[0].IP, sym)
	}
	last := recs[len(recs)-1]
	if len(last.Group) != 3 {
		t.Fatalf("group read has %d entries, want 3", len(last.Group))
	}
	cyc, ins := last.Group[1].Value, last.Group[2].Value
	if cyc == 0 || ins == 0 {
		t.Fatal("member counters empty")
	}
	ipc := float64(ins) / float64(cyc)
	if ipc <= 0 || ipc > 2 {
		t.Errorf("derived IPC = %.2f out of plausible range", ipc)
	}
	if len(last.Callchain) == 0 {
		t.Error("no callchain captured")
	}
}

func TestTraps(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("div", ir.I64, ir.NewParam("a", ir.I64), ir.NewParam("b", ir.I64))
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	q := b.SDiv(f.Params[0], f.Params[1])
	b.Ret(q)
	g := mod.NewFunc("oob", ir.I64)
	b = ir.NewBuilder(g)
	b.NewBlock("entry")
	v := b.Load(ir.I64, ir.ConstInt(ir.Ptr, 0)) // null deref
	_ = v
	b.Ret(v)
	w := mod.NewFunc("wrap", ir.I64, ir.NewParam("p", ir.Ptr))
	b = ir.NewBuilder(w)
	b.NewBlock("entry")
	b.Ret(b.Load(ir.I64, w.Params[0]))

	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("div", 10, 0); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("div by zero: %v", err)
	}
	if _, err := m.Run("div", 10, 2); err != nil {
		t.Errorf("valid division trapped: %v", err)
	}
	if _, err := m.Run("oob"); err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Errorf("null load: %v", err)
	}
	// An access whose last byte lies past 2^64 wraps addr+size to a
	// small number; it is out of bounds, not a host panic.
	const top = math.MaxUint64 - 7
	if _, err := m.Run("wrap", top); err == nil || !strings.Contains(err.Error(), "invalid address") {
		t.Errorf("wrapped load: %v", err)
	}
	if err := m.WriteU64(top, 1); err == nil {
		t.Error("WriteU64 at a wrapped address must fail")
	}
	if _, err := m.ReadF32(math.MaxUint64 - 3); err == nil {
		t.Error("ReadF32 at a wrapped address must fail")
	}
	if _, err := m.Run("missing"); err == nil {
		t.Error("running a missing function must fail")
	}
	if _, err := m.Run("div", 1); err == nil {
		t.Error("wrong arity must fail")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	mod := ir.NewModule("t")
	f := mod.NewFunc("spin", ir.Void)
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	_ = entry
	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	m.MaxSteps = 1000
	if _, err := m.Run("spin"); err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Errorf("infinite loop not stopped: %v", err)
	}
}

func TestSymbolize(t *testing.T) {
	mod := buildSumModule(16)
	m, err := New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Symbolize(0); ok {
		t.Error("address 0 should not symbolize")
	}
}

func TestIntegerWidthSemantics(t *testing.T) {
	// i8 arithmetic wraps at 256; sext reproduces the sign.
	mod := ir.NewModule("t")
	f := mod.NewFunc("w", ir.I64, ir.NewParam("x", ir.I64))
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	tr := b.Convert(ir.OpTrunc, f.Params[0], ir.I8)
	inc := b.Add(tr, ir.ConstInt(ir.I8, 1))
	back := b.Convert(ir.OpSExt, inc, ir.I64)
	b.Ret(back)
	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Run("w", 0x7F) // 127+1 wraps to -128 in i8
	if err != nil {
		t.Fatal(err)
	}
	if int64(got) != -128 {
		t.Errorf("i8 wrap = %d, want -128", int64(got))
	}
}

func TestAllocaStackDiscipline(t *testing.T) {
	// Alloca slots are released on return: calling repeatedly must not
	// exhaust the stack.
	mod := ir.NewModule("t")
	f := mod.NewFunc("scratch", ir.I64)
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	p := b.Alloca(ir.I64, 1024)
	b.Store(ir.ConstInt(ir.I64, 42), p)
	v := b.Load(ir.I64, p)
	b.Ret(v)
	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		got, err := m.Run("scratch")
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got != 42 {
			t.Fatalf("scratch = %d, want 42", got)
		}
	}
}

func TestFreqAndCycles(t *testing.T) {
	mod := buildSumModule(64)
	m, err := New(platform.X60(), mod)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreqHz() != 1.6e9 {
		t.Errorf("freq = %g", m.FreqHz())
	}
	fillData(t, m, "data", 64)
	runSum(t, m, 64)
	if m.Cycles() == 0 {
		t.Error("cycles did not advance")
	}
}
