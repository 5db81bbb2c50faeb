package vm

import (
	"math"
	"testing"

	"mperf/internal/ir"
	"mperf/internal/platform"
)

// buildFMASumModule is buildSumModule with the accumulation expressed
// as an FMA, so the loop body falls entirely inside the specialized
// kernel vocabulary.
func buildFMASumModule(n int) *ir.Module {
	m := ir.NewModule("t")
	m.NewGlobal("data", ir.F32, n)
	f := m.NewFunc("sum", ir.F32, ir.NewParam("a", ir.Ptr), ir.NewParam("n", ir.I64))
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
	s := b.FMA(v, ir.ConstFloat(ir.F32, 1), acc)
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

// runFMASum compiles the module with the given options, runs it, and
// returns the result plus the machine's kernel coverage.
func runFMASum(t *testing.T, n int, opts ...CompileOption) (float32, *ExecStats) {
	t.Helper()
	prog, err := Compile(buildFMASumModule(n), opts...)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, platform.X60())
	st := new(ExecStats)
	m.SetExecStats(st)
	defer m.Release()
	addr, err := m.GlobalAddr("data")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.WriteF32(addr+uint64(i*4), float32(i%7)*0.25); err != nil {
			t.Fatal(err)
		}
	}
	bits, err := m.Run("sum", addr, uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	m.FlushExecStats()
	return math.Float32frombits(uint32(bits)), st
}

// TestWithHotFuncsGatesKernels pins the profile-guided re-planning
// hook: kernel specialization engages for every function by default and
// only for the named functions under WithHotFuncs — with identical
// results in all cases.
func TestWithHotFuncsGatesKernels(t *testing.T) {
	const n = 512
	def, defSt := runFMASum(t, n)
	if defSt.KernelHits.Load() == 0 || defSt.KernelIters.Load() != n {
		t.Errorf("default compile: kernel hits=%d iters=%d, want engaged with %d iters",
			defSt.KernelHits.Load(), defSt.KernelIters.Load(), n)
	}

	hot, hotSt := runFMASum(t, n, WithHotFuncs("sum"))
	if hotSt.KernelHits.Load() == 0 {
		t.Error("WithHotFuncs(sum): kernel did not engage for the named function")
	}

	cold, coldSt := runFMASum(t, n, WithHotFuncs("unrelated"))
	if coldSt.KernelHits.Load() != 0 {
		t.Errorf("WithHotFuncs(unrelated): kernel engaged %d times for an unlisted function",
			coldSt.KernelHits.Load())
	}
	if coldSt.TotalSteps.Load() != defSt.TotalSteps.Load() {
		t.Errorf("WithHotFuncs(unrelated) ran %d steps, default %d",
			coldSt.TotalSteps.Load(), defSt.TotalSteps.Load())
	}

	for name, got := range map[string]float32{"hot": hot, "cold": cold} {
		if got != def {
			t.Errorf("%s compile result %f != default %f", name, got, def)
		}
	}
}
