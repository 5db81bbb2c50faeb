package workloads

import "mperf/internal/ir"

// This file holds the memory-bound kernel suite (after Volokitin et
// al.'s study of memory-bound kernels on RISC-V, PAPERS.md): the three
// remaining STREAM variants, irregular gather/scatter, a CSR SpMV, and
// a pointer chase. Together with triad/memset they give the
// hierarchical roofline per-level ceilings something to classify — each
// kernel stresses a different level of the hierarchy (streams saturate
// bandwidth, gather/scatter defeat spatial locality, the chase defeats
// memory-level parallelism entirely).

// BuildStreamCopy adds `void stream_copy(ptr a, ptr b, i64 n)` — the
// STREAM copy a[i] = b[i] over f32: pure bandwidth, zero FLOPs.
func BuildStreamCopy(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("stream_copy", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("n", ir.I64))
	f.SourceFile = "stream.c"
	f.SourceLine = 7
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[2])
	v := lp.b.Load(ir.F32, lp.b.GEP(f.Params[1], lp.iv, 4))
	lp.b.Store(v, lp.b.GEP(f.Params[0], lp.iv, 4))
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildStreamScale adds `void stream_scale(ptr a, ptr b, f32 s, i64 n)`
// — the STREAM scale a[i] = s·b[i].
func BuildStreamScale(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("stream_scale", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr),
		ir.NewParam("s", ir.F32), ir.NewParam("n", ir.I64))
	f.SourceFile = "stream.c"
	f.SourceLine = 12
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[3])
	v := lp.b.Load(ir.F32, lp.b.GEP(f.Params[1], lp.iv, 4))
	r := lp.b.FMul(f.Params[2], v)
	lp.b.Store(r, lp.b.GEP(f.Params[0], lp.iv, 4))
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildStreamAdd adds `void stream_add(ptr a, ptr b, ptr c, i64 n)` —
// the STREAM add a[i] = b[i] + c[i]: three streams, one FLOP.
func BuildStreamAdd(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("stream_add", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("c", ir.Ptr),
		ir.NewParam("n", ir.I64))
	f.SourceFile = "stream.c"
	f.SourceLine = 16
	f.SetHint("trip_multiple.loop", loopMultiple)
	lp := startLoop(f, f.Params[3])
	bv := lp.b.Load(ir.F32, lp.b.GEP(f.Params[1], lp.iv, 4))
	cv := lp.b.Load(ir.F32, lp.b.GEP(f.Params[2], lp.iv, 4))
	r := lp.b.FAdd(bv, cv)
	lp.b.Store(r, lp.b.GEP(f.Params[0], lp.iv, 4))
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildGather adds `void gather(ptr a, ptr b, ptr idx, i64 n)` —
// a[i] = b[idx[i]]: the load address depends on loaded data, so the
// vectorizer declines it (non-affine address) and spatial locality in b
// is whatever the index pattern leaves.
func BuildGather(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("gather", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("idx", ir.Ptr),
		ir.NewParam("n", ir.I64))
	f.SourceFile = "gather.c"
	f.SourceLine = 6
	lp := startLoop(f, f.Params[3])
	iv := lp.b.Load(ir.I64, lp.b.GEP(f.Params[2], lp.iv, 8))
	v := lp.b.Load(ir.F32, lp.b.GEP(f.Params[1], iv, 4))
	lp.b.Store(v, lp.b.GEP(f.Params[0], lp.iv, 4))
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildScatter adds `void scatter(ptr a, ptr b, ptr idx, i64 n)` —
// a[idx[i]] = b[i]: the dual of gather, with the irregularity on the
// store stream.
func BuildScatter(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("scatter", ir.Void,
		ir.NewParam("a", ir.Ptr), ir.NewParam("b", ir.Ptr), ir.NewParam("idx", ir.Ptr),
		ir.NewParam("n", ir.I64))
	f.SourceFile = "scatter.c"
	f.SourceLine = 6
	lp := startLoop(f, f.Params[3])
	iv := lp.b.Load(ir.I64, lp.b.GEP(f.Params[2], lp.iv, 8))
	v := lp.b.Load(ir.F32, lp.b.GEP(f.Params[1], lp.iv, 4))
	lp.b.Store(v, lp.b.GEP(f.Params[0], iv, 4))
	lp.finish()
	lp.b.RetVoid()
	return f
}

// BuildSpMV adds the CSR sparse matrix-vector product
// `void spmv(ptr y, ptr val, ptr col, ptr rowptr, ptr x, i64 rows)`:
//
//	for (r = 0; r < rows; r++) {
//	  float sum = 0;
//	  for (k = rowptr[r]; k < rowptr[r+1]; k++)
//	    sum += val[k] * x[col[k]];
//	  y[r] = sum;
//	}
//
// Empty rows are legal: the inner loop is guarded, so a row with no
// nonzeros stores 0 without entering it.
func BuildSpMV(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("spmv", ir.Void,
		ir.NewParam("y", ir.Ptr), ir.NewParam("val", ir.Ptr), ir.NewParam("col", ir.Ptr),
		ir.NewParam("rowptr", ir.Ptr), ir.NewParam("x", ir.Ptr), ir.NewParam("rows", ir.I64))
	f.SourceFile = "spmv.c"
	f.SourceLine = 18

	y, val, col, rowptr, x, rows := f.Params[0], f.Params[1], f.Params[2], f.Params[3], f.Params[4], f.Params[5]
	one := ir.ConstInt(ir.I64, 1)
	zero := ir.ConstInt(ir.I64, 0)
	fzero := ir.ConstFloat(ir.F32, 0)

	b := ir.NewBuilder(f)
	entry := b.NewBlock("entry")
	rloop := f.NewBlock("rloop")
	kloop := f.NewBlock("kloop")
	kexit := f.NewBlock("kexit")
	rlatch := f.NewBlock("rlatch")
	exit := f.NewBlock("exit")

	b.SetBlock(entry)
	b.Br(rloop)

	b.SetBlock(rloop)
	r := b.Phi(ir.I64)
	r.SetName("r")
	k0 := b.Load(ir.I64, b.GEP(rowptr, r, 8))
	k1 := b.Load(ir.I64, b.GEP(rowptr, b.Add(r, one), 8))
	hasNZ := b.ICmp(ir.PredLT, k0, k1)
	b.CondBr(hasNZ, kloop, kexit)

	b.SetBlock(kloop)
	k := b.Phi(ir.I64)
	k.SetName("k")
	sum := b.Phi(ir.F32)
	sum.SetName("sum")
	v := b.Load(ir.F32, b.GEP(val, k, 4))
	cIdx := b.Load(ir.I64, b.GEP(col, k, 8))
	xv := b.Load(ir.F32, b.GEP(x, cIdx, 4))
	sumNext := b.FMA(v, xv, sum)
	kNext := b.Add(k, one)
	kc := b.ICmp(ir.PredLT, kNext, k1)
	b.CondBr(kc, kloop, kexit)
	ir.AddIncoming(k, k0, rloop)
	ir.AddIncoming(k, kNext, kloop)
	ir.AddIncoming(sum, fzero, rloop)
	ir.AddIncoming(sum, sumNext, kloop)

	b.SetBlock(kexit)
	sumOut := b.Phi(ir.F32)
	sumOut.SetName("sumOut")
	ir.AddIncoming(sumOut, fzero, rloop)
	ir.AddIncoming(sumOut, sumNext, kloop)
	b.Store(sumOut, b.GEP(y, r, 4))
	b.Br(rlatch)

	b.SetBlock(rlatch)
	rNext := b.Add(r, one)
	rc := b.ICmp(ir.PredLT, rNext, rows)
	b.CondBr(rc, rloop, exit)
	ir.AddIncoming(r, zero, entry)
	ir.AddIncoming(r, rNext, rlatch)

	b.SetBlock(exit)
	b.RetVoid()
	return f
}

// BuildPtrChase adds `i64 ptrchase(ptr next, i64 start, i64 n)` — the
// classic dependent-load chain idx = next[idx], n steps. Every load's
// address depends on the previous load's value, so no amount of
// memory-level parallelism hides the latency; the kernel measures the
// hierarchy's round-trip time rather than its bandwidth.
func BuildPtrChase(mod *ir.Module) *ir.Func {
	f := mod.NewFunc("ptrchase", ir.I64,
		ir.NewParam("next", ir.Ptr), ir.NewParam("start", ir.I64), ir.NewParam("n", ir.I64))
	f.SourceFile = "chase.c"
	f.SourceLine = 9
	lp := startLoop(f, f.Params[2])
	cur := lp.b.Phi(ir.I64)
	cur.SetName("cur")
	nxt := lp.b.Load(ir.I64, lp.b.GEP(f.Params[0], cur, 8))
	ir.AddIncoming(cur, f.Params[1], lp.entry)
	ir.AddIncoming(cur, nxt, lp.loop)
	lp.finish()
	lp.b.Ret(nxt)
	return f
}
