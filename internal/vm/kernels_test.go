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

// runFMASum compiles the module, runs it, and returns the result plus
// the machine's kernel coverage.
func runFMASum(t *testing.T, n int) (float32, *ExecStats) {
	t.Helper()
	prog, err := Compile(buildFMASumModule(n))
	if err != nil {
		t.Fatal(err)
	}
	return runFMASumProg(t, prog, n)
}

// runFMASumProg seeds and runs a compiled FMA-sum program.
func runFMASumProg(t *testing.T, prog *Program, n int) (float32, *ExecStats) {
	t.Helper()
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

// TestWithHotFuncsGatesKernels pins that kernel specialization engages
// on the FMA loop — every iteration runs natively — and that the
// kernel computes the same sum as a scalar reference.
func TestWithHotFuncsGatesKernels(t *testing.T) {
	const n = 512
	got, st := runFMASum(t, n)
	if st.KernelHits.Load() == 0 || st.KernelIters.Load() != n {
		t.Errorf("kernel hits=%d iters=%d, want engaged with %d iters",
			st.KernelHits.Load(), st.KernelIters.Load(), n)
	}
	var want float32
	for i := 0; i < n; i++ {
		want += float32(i%7) * 0.25
	}
	if got != want {
		t.Errorf("kernel sum %f != reference %f", got, want)
	}
}
