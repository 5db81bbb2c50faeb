package vm

import (
	"testing"

	"mperf/internal/ir"
	"mperf/internal/passes"
	"mperf/internal/platform"
)

// These tests enforce the allocation-free hot loop: after a warm-up
// run (which populates frame pools and scratch buffers), interpreting
// scalar and vector instruction streams must not allocate at all.
// A regression here means per-instruction heap traffic crept back in.

// buildScalarMixModule returns i64 @mix(i64 n): a loop exercising the
// scalar integer and FP exec paths (arith, shifts, compare, convert,
// FMA, phi copies, branches) with no memory traffic.
func buildScalarMixModule() *ir.Module {
	m := ir.NewModule("t")
	f := m.NewFunc("mix", ir.I64, ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	i := b.Phi(ir.I64)
	acc := b.Phi(ir.I64)
	facc := b.Phi(ir.F64)
	x := b.Mul(acc, ir.ConstInt(ir.I64, 6364136223846793005))
	x = b.Add(x, ir.ConstInt(ir.I64, 1442695040888963407))
	x = b.Xor(x, b.LShr(x, ir.ConstInt(ir.I64, 33)))
	fi := b.Convert(ir.OpSIToFP, i, ir.F64)
	fs := b.FMA(fi, ir.ConstFloat(ir.F64, 1.5), facc)
	inext := b.Add(i, ir.ConstInt(ir.I64, 1))
	c := b.ICmp(ir.PredLT, inext, f.Params[0])
	b.CondBr(c, loop, exit)
	ir.AddIncoming(i, ir.ConstInt(ir.I64, 0), entry)
	ir.AddIncoming(i, inext, loop)
	ir.AddIncoming(acc, ir.ConstInt(ir.I64, 1), entry)
	ir.AddIncoming(acc, x, loop)
	ir.AddIncoming(facc, ir.ConstFloat(ir.F64, 0), entry)
	ir.AddIncoming(facc, fs, loop)
	b.SetBlock(exit)
	fb := b.Convert(ir.OpFPToSI, fs, ir.I64)
	b.Ret(b.Add(x, fb))
	return m
}

func TestScalarStepsDoNotAllocate(t *testing.T) {
	m, err := New(platform.X60(), buildScalarMixModule())
	if err != nil {
		t.Fatal(err)
	}
	const n = 10_000
	run := func() {
		if _, err := m.Run("mix", n); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the frame pool and scratch buffers
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("scalar run of %d steps allocated %.1f times, want 0", n, allocs)
	}
}

func TestCallHeavyStepsDoNotAllocate(t *testing.T) {
	// Recursive fib: every simulated call must come from the frame
	// pool after warm-up.
	mod := ir.NewModule("t")
	f := mod.NewFunc("fib", ir.I64, ir.NewParam("n", ir.I64))
	b := ir.NewBuilder(f)
	b.NewBlock("entry")
	rec := f.NewBlock("rec")
	base := f.NewBlock("base")
	c := b.ICmp(ir.PredLT, f.Params[0], ir.ConstInt(ir.I64, 2))
	b.CondBr(c, base, rec)
	b.SetBlock(base)
	b.Ret(f.Params[0])
	b.SetBlock(rec)
	r1 := b.Call(f, b.Sub(f.Params[0], ir.ConstInt(ir.I64, 1)))
	r2 := b.Call(f, b.Sub(f.Params[0], ir.ConstInt(ir.I64, 2)))
	b.Ret(b.Add(r1, r2))

	m, err := New(platform.U74(), mod)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := m.Run("fib", 15); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("call-heavy run allocated %.1f times, want 0", allocs)
	}
}

func TestVectorStepsDoNotAllocateSteadyState(t *testing.T) {
	// The vectorized sum exercises splat, vector load, lane-wise FP
	// arithmetic, reductions and phi copies of vector registers. After
	// one run, destination and scratch buffers must be reused.
	const n = 4096
	mod := buildSumModule(n)
	f := mod.FuncByName("sum")
	if headers := passes.VectorizeFunction(f, passes.VecAggressive, 8); len(headers) != 1 {
		t.Fatal("vectorization failed")
	}
	m, err := New(platform.I5_1135G7(), mod)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := m.GlobalAddr("data")
	run := func() {
		if _, err := m.Run("sum", addr, uint64(n)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("vector run of %d elements allocated %.1f times, want 0 steady-state", n, allocs)
	}
}

func TestKernelLoopDoesNotAllocate(t *testing.T) {
	// The FMA sum runs entirely in its loop kernel; after warm-up,
	// entering the kernel (constant slots, dyn buffer, frame) must not
	// allocate.
	const n = 4096
	prog, err := Compile(buildFMASumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, platform.X60())
	defer m.Release()
	st := new(ExecStats)
	m.SetExecStats(st)
	addr, _ := m.GlobalAddr("data")
	run := func() {
		if _, err := m.Run("sum", addr, uint64(n)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	m.FlushExecStats()
	if iters := st.KernelIters.Load(); iters != n {
		t.Fatalf("kernel ran %d iterations, want %d", iters, n)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("kernel run of %d iterations allocated %.1f times, want 0", n, allocs)
	}
}
