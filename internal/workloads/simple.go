package workloads

import (
	"fmt"

	"mperf/internal/ir"
	"mperf/internal/vm"
)

// singleLoop builds the skeleton every streaming kernel shares: a
// preheader, a single-block loop with a canonical IV from 0 to n step
// 1, and an exit. body emits the per-iteration work and returns the
// optional reduction (phi, update) pair.
type loopParts struct {
	f     *ir.Func
	b     *ir.Builder
	entry *ir.Block
	loop  *ir.Block
	exit  *ir.Block
	iv    *ir.Instr
	n     ir.Value
}

func startLoop(f *ir.Func, n ir.Value) *loopParts {
	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")
	b.SetBlock(entry)
	b.Br(loop)
	b.SetBlock(loop)
	iv := b.Phi(ir.I64)
	iv.SetName("i")
	return &loopParts{f: f, b: b, entry: entry, loop: loop, exit: exit, iv: iv, n: n}
}

func (lp *loopParts) finish() {
	b := lp.b
	inext := b.Add(lp.iv, ir.ConstInt(ir.I64, 1))
	c := b.ICmp(ir.PredLT, inext, lp.n)
	b.CondBr(c, lp.loop, lp.exit)
	ir.AddIncoming(lp.iv, ir.ConstInt(ir.I64, 0), lp.entry)
	ir.AddIncoming(lp.iv, inext, lp.loop)
	b.SetBlock(lp.exit)
}

// BuildMemset adds `void memset64(ptr dst, i64 val, i64 n)` storing n
// 8-byte words — the kernel behind the X60 memory-bandwidth roof
// (§5.2 cites the rvv-bench memset figure of ≈3.16 B/cycle).
func BuildMemset(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("memset64", ir.Void,
		ir.NewParam("dst", ir.Ptr), ir.NewParam("val", ir.I64), ir.NewParam("n", ir.I64))
	f.SourceFile = "memset.c"
	f.SourceLine = 5
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[2])
	p := lp.b.GEP(f.Params[0], lp.iv, 8)
	lp.b.Store(f.Params[1], p)
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildTriad adds the STREAM triad `a[i] = b[i] + s*c[i]` over f32.
func BuildTriad(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("triad", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("c", ir.Ptr),
		ir.NewParam("s", ir.F32), ir.NewParam("n", ir.I64))
	f.SourceFile = "stream.c"
	f.SourceLine = 21
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[4])
	pb := lp.b.GEP(f.Params[1], lp.iv, 4)
	pcv := lp.b.GEP(f.Params[2], lp.iv, 4)
	bv := lp.b.Load(ir.F32, pb)
	cv := lp.b.Load(ir.F32, pcv)
	r := lp.b.FMA(f.Params[3], cv, bv)
	pa := lp.b.GEP(f.Params[0], lp.iv, 4)
	lp.b.Store(r, pa)
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildDot adds `f32 dot(ptr a, ptr b, i64 n)` — the classic FP
// reduction: vectorized with a horizontal-add epilogue under the
// aggressive profile, interleaved two-way under the conservative one.
func BuildDot(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("dot", ir.F32,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("n", ir.I64))
	f.SourceFile = "dot.c"
	f.SourceLine = 9
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[2])
	acc := lp.b.Phi(ir.F32)
	acc.SetName("acc")
	pa := lp.b.GEP(f.Params[0], lp.iv, 4)
	pb := lp.b.GEP(f.Params[1], lp.iv, 4)
	av := lp.b.Load(ir.F32, pa)
	bv := lp.b.Load(ir.F32, pb)
	up := lp.b.FMA(av, bv, acc)
	ir.AddIncoming(acc, ir.ConstFloat(ir.F32, 0), lp.entry)
	ir.AddIncoming(acc, up, lp.loop)
	lp.finish()
	lp.b.Ret(up)
	return f
}

// BuildStencil adds a 1D three-point stencil
// `out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1]` over the interior
// points i in [1, n-1); the caller passes pointers offset so the loop
// itself runs 0..m with unit stride.
func BuildStencil(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("stencil3", ir.Void,
		ir.NewParam("out", ir.Ptr), ir.NewParam("in", ir.Ptr), ir.NewParam("m", ir.I64))
	f.SourceFile = "stencil.c"
	f.SourceLine = 14
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[2])
	b := lp.b
	pm := b.GEP(f.Params[1], lp.iv, 4) // in[i] with caller offset +1: in[i-1] at -4
	left := b.Load(ir.F32, b.GEP(f.Params[1], b.Sub(lp.iv, ir.ConstInt(ir.I64, 1)), 4))
	mid := b.Load(ir.F32, pm)
	right := b.Load(ir.F32, b.GEP(f.Params[1], b.Add(lp.iv, ir.ConstInt(ir.I64, 1)), 4))
	_ = left
	q := b.FMul(mid, ir.ConstFloat(ir.F32, 0.5))
	q2 := b.FMA(left, ir.ConstFloat(ir.F32, 0.25), q)
	q3 := b.FMA(right, ir.ConstFloat(ir.F32, 0.25), q2)
	b.Store(q3, b.GEP(f.Params[0], lp.iv, 4))
	lp.finish()
	b.RetVoid()
	return f
}

// SeedF32 fills the first n elements of an f32 global with the input
// pattern of the f32 array kernels.
func SeedF32(m *vm.Machine, name string, n int) error {
	return array{name: name, elem: ir.F32, fill: f32Fill}.seed(m, n)
}

// MemsetStoredBytesPerCycle runs memset64 over a buffer and returns
// stored bytes per cycle — the quantity the paper's memory roof is
// derived from.
func MemsetStoredBytesPerCycle(m *vm.Machine, bufferName string, words int) (float64, error) {
	addr, err := m.GlobalAddr(bufferName)
	if err != nil {
		return 0, err
	}
	start := m.Hart().Core.Cycles()
	if _, err := m.Run("memset64", addr, 0xAB, uint64(words)); err != nil {
		return 0, err
	}
	cycles := m.Hart().Core.Cycles() - start
	if cycles == 0 {
		return 0, fmt.Errorf("workloads: memset consumed no cycles")
	}
	return float64(words*8) / float64(cycles), nil
}
