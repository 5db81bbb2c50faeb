package vm

import (
	"math"

	"mperf/internal/ir"
	"mperf/internal/machine"
)

// This file implements template specialization for the dominant inner
// loops of the catalog kernels: self-loop blocks whose bodies are
// built entirely from a small micro-op vocabulary (strided loads and
// stores, splats, f32 FMAs, i64 induction arithmetic, a trailing
// conditional branch) are compiled at plan time into loop recipes, and
// a recipe executes as a hand-written Go loop — no step closures, no
// per-uop emit — that fills the block's dynamic operands and charges
// one region per iteration through ExecRegion. The vocabulary covers
// the matmul k-loops (scalar and vectorized), the streaming
// triad/memset loops, and anything else of that shape.
//
// Operand forms are resolved at plan time: every operand is a register
// id (an immediate gets a constant slot past the function's registers,
// filled on kernel entry), so the per-iteration switch never asks
// whether an operand is a register. Loads and stores go through the
// generic executor's loadScalar/storeScalar, bounds checks and trap
// text included.
//
// A kernel is an optimization of the generic block executor only: it
// performs exactly the same semantic effects in the same order (body,
// then the back-edge phi parallel copy) and charges exactly the block's
// charge template per iteration, so profiles are bit-identical — the
// golden corpus covers workloads whose hot loops run through these
// kernels, and TestKernelMatchesGenericExecutor compares a kernel with
// the generic executor directly, trapping runs included, with and
// without an armed PMU sampler. Under sampling a kernel makes the
// generic loop's edge calls: after the step check of every iteration
// it calls machine.Core.FlushEdge and moves the core's PC to the
// block, so an overflow fires at the same iteration edge with the same
// PC. Any block that steps outside the vocabulary simply never gets a
// kernel and runs generically.

// kOp kinds. Each recipe op corresponds 1:1 to a block step (and so to
// a slot of the block's charge template).
const (
	kLoad     uint8 = iota // dst = mem[a + off], scalar
	kVecLoad               // dst[lanes] = mem[a + off ...], strided by elem
	kStore                 // mem[b + off] = a, scalar
	kVecStore              // mem[b + off ...] = a[lanes]
	kSplat                 // dst[lanes] = broadcast a
	kFMA                   // dst = f32(a*b + c), float64 intermediate
	kVecFMA                // lane-wise kFMA over vector regs a, b, c
	kAdd                   // dst = a + b (i64)
	kMul                   // dst = a * b (i64)
	kICmp                  // dst = pred(a, b) (signed i64)
	kGEP                   // dst = a + b*scale
	kCondBr                // taken = (a != 0); must be the last op
	kCount                 // mperf.count(a, cnt...) — pure accumulation
)

// kOp is one pre-compiled micro-op of a loop recipe. a, b, c are
// register ids, always: an immediate operand reads a constant slot of
// the recipe (see kConst), so the executor never asks whether an
// operand is a register.
type kOp struct {
	kind    uint8
	pred    ir.Pred
	lanes   int32
	dst     int32
	a, b, c int32
	off     int64    // load/store byte offset (in.Scale)
	scale   int64    // gep element size (in.Scale)
	cnt     [4]int64 // mperf.count constant block costs
	elem    ir.Type  // load/store element type
	elemSz  uint64
}

// kMove is one back-edge phi parallel-copy assignment; src is a
// register id, a constant slot for an immediate source.
type kMove struct {
	dst   int32
	src   int32
	isVec bool
	lanes int
}

// kConst is a constant register slot: a register past the function's
// own, filled with an immediate operand's bits when the kernel is
// entered. Nothing else writes it.
type kConst struct {
	reg int32
	imm uint64
}

// loopRecipe is the compiled form of a specialized self-loop.
type loopRecipe struct {
	ops       []kOp
	selfMoves []kMove
	consts    []kConst
	exit      *blockPlan
	predIdx   int32
	// vecTys are the distinct vector types the body touches, each with
	// the index of the first op that uses it, checked against the
	// platform once per loop entry (the generic path checks per step).
	vecTys []kVecTy
}

// kVecTy is a vector type of a recipe and the first op that uses it.
type kVecTy struct {
	ty ir.Type
	op int
}

// matchKernels inspects a planned function's blocks and installs
// specialized loop kernels where a block matches the vocabulary. Each
// recipe's constant slots extend the function's register file.
func matchKernels(fp *funcPlan) {
	for _, bp := range fp.blocks {
		if rec := matchLoopRecipe(bp, int32(fp.numRegs)); rec != nil {
			fp.numRegs += len(rec.consts)
			bp.kernel = makeLoopKernel(bp, rec)
		}
	}
}

// reg converts a step operand into a register id, giving an immediate
// a constant slot numbered from base. It declines vector immediates.
func (rec *loopRecipe) reg(op *operand, base int32) (int32, bool) {
	if op.vecImm != nil {
		return 0, false
	}
	if op.reg >= 0 {
		return op.reg, true
	}
	for _, k := range rec.consts {
		if k.imm == op.imm {
			return k.reg, true
		}
	}
	r := base + int32(len(rec.consts))
	rec.consts = append(rec.consts, kConst{reg: r, imm: op.imm})
	return r, true
}

// matchLoopRecipe recognizes a specializable self-loop: a block whose
// terminator is condbr(cond, self, exit) and whose body uses only the
// kernel vocabulary. Constant slots are numbered from base, the first
// register past the function's. Returns nil if the block does not
// qualify.
func matchLoopRecipe(bp *blockPlan, base int32) *loopRecipe {
	n := len(bp.steps)
	if n < 2 {
		return nil
	}
	term := &bp.steps[n-1]
	if term.in.Op != ir.OpCondBr || len(term.targets) != 2 {
		return nil
	}
	if term.targets[0] != bp || term.targets[1] == bp {
		return nil
	}
	if term.args[0].reg < 0 {
		return nil
	}

	rec := &loopRecipe{exit: term.targets[1], predIdx: int32(bp.index)}
	addVecTy := func(ty ir.Type) {
		for _, v := range rec.vecTys {
			if v.ty == ty {
				return
			}
		}
		rec.vecTys = append(rec.vecTys, kVecTy{ty: ty, op: len(rec.ops)})
	}
	// regs resolves the first len(dst) step operands into dst.
	regs := func(st *step, dst ...*int32) bool {
		for j, d := range dst {
			r, ok := rec.reg(&st.args[j], base)
			if !ok {
				return false
			}
			*d = r
		}
		return true
	}

	for i := range bp.steps {
		st := &bp.steps[i]
		in := st.in
		op := kOp{dst: st.dst, a: -1, b: -1, c: -1}
		switch in.Op {
		case ir.OpLoad:
			if !regs(st, &op.a) {
				return nil
			}
			op.off = in.Scale
			if in.Ty.IsVector() {
				op.kind = kVecLoad
				op.elem = in.Ty.Elem()
				op.elemSz = uint64(op.elem.Size())
				op.lanes = int32(in.Ty.Lanes)
				addVecTy(in.Ty)
			} else {
				op.kind = kLoad
				op.elem = in.Ty
			}
		case ir.OpStore:
			if !regs(st, &op.a, &op.b) {
				return nil
			}
			op.off = in.Scale
			ty := in.Args[0].Type()
			if ty.IsVector() {
				if !st.args[0].isVec {
					return nil // scalar-splat stores stay generic
				}
				op.kind = kVecStore
				op.elem = ty.Elem()
				op.elemSz = uint64(op.elem.Size())
				op.lanes = int32(ty.Lanes)
				addVecTy(ty)
			} else {
				op.kind = kStore
				op.elem = ty
			}
		case ir.OpSplat:
			if st.args[0].isVec || !regs(st, &op.a) {
				return nil
			}
			op.kind = kSplat
			op.lanes = int32(in.Ty.Lanes)
			addVecTy(in.Ty)
		case ir.OpFMA:
			if in.Ty.Elem().Kind != ir.KF32 || !regs(st, &op.a, &op.b, &op.c) {
				return nil
			}
			if in.Ty.IsVector() {
				if !st.args[0].isVec || !st.args[1].isVec || !st.args[2].isVec {
					return nil
				}
				op.kind = kVecFMA
				op.lanes = int32(in.Ty.Lanes)
				addVecTy(in.Ty)
			} else {
				op.kind = kFMA
			}
		case ir.OpAdd, ir.OpMul:
			if in.Ty.Kind != ir.KI64 || !regs(st, &op.a, &op.b) {
				return nil
			}
			if in.Op == ir.OpMul {
				op.kind = kMul
			} else {
				op.kind = kAdd
			}
		case ir.OpICmp:
			if in.Args[0].Type().Kind != ir.KI64 || !regs(st, &op.a, &op.b) {
				return nil
			}
			op.kind, op.pred = kICmp, in.Pred
		case ir.OpGEP:
			if !regs(st, &op.a, &op.b) {
				return nil
			}
			op.kind, op.scale = kGEP, in.Scale
		case ir.OpCall:
			// The roofline instrumentation's counting intrinsic is pure
			// accumulation (no clock read), so charge/count interleaving
			// is unobservable and the call may run inside a kernel. The
			// cost arguments are compile-time constants by construction.
			if st.callee == nil || st.callee.intrinsic != "mperf.count" ||
				st.dst >= 0 || len(st.args) != 5 {
				return nil
			}
			if !regs(st, &op.a) {
				return nil
			}
			for j := 1; j < 5; j++ {
				if st.args[j].reg >= 0 || st.args[j].isVec {
					return nil
				}
				op.cnt[j-1] = int64(st.args[j].imm)
			}
			op.kind = kCount
		case ir.OpCondBr:
			if i != n-1 {
				return nil
			}
			op.kind, op.a = kCondBr, st.args[0].reg
		default:
			return nil
		}
		rec.ops = append(rec.ops, op)
	}

	// Back-edge phi parallel copy. Sequential application is only
	// correct when no copy's source is another copy's destination
	// (constant slots are never destinations).
	var dsts []int32
	for _, mv := range bp.movesFrom[bp.index] {
		if mv.isVec && mv.src.reg < 0 {
			return nil
		}
		src, ok := rec.reg(&mv.src, base)
		if !ok {
			return nil
		}
		dsts = append(dsts, mv.dst)
		rec.selfMoves = append(rec.selfMoves, kMove{
			dst: mv.dst, src: src, isVec: mv.isVec, lanes: mv.lanes,
		})
	}
	for _, mv := range rec.selfMoves {
		for _, d := range dsts {
			if mv.src == d {
				return nil
			}
		}
	}
	return rec
}

// kvec fetches a vector register, with the generic path's
// read-before-write trap.
func kvec(fr *frame, r int32) []uint64 {
	v := fr.vregs[r]
	if v == nil {
		trapf("vector register read before write")
	}
	return v
}

// fma32 is fmaKernel's f32 arithmetic: float64 intermediates, exactly
// like the step executor, so results stay bit-identical.
func fma32(a, b, c uint64) uint64 {
	z := float64(math.Float32frombits(uint32(a)))*float64(math.Float32frombits(uint32(b))) +
		float64(math.Float32frombits(uint32(c)))
	return uint64(math.Float32bits(float32(z)))
}

// kCmp evaluates a signed i64 comparison.
func kCmp(pred ir.Pred, a, b int64) bool {
	switch pred {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT:
		return a < b
	case ir.PredLE:
		return a <= b
	case ir.PredGT:
		return a > b
	default:
		return a >= b
	}
}

// makeLoopKernel binds a recipe into the block's specialized executor.
// An iteration records its dynamic operands into the machine's pending
// region buffer, and before each op that can trap it sets m.pendN to
// the ops completed so far, so Run's trap recovery charges the
// trapping iteration's completed uops exactly as it does for the
// generic executor.
func makeLoopKernel(bp *blockPlan, rec *loopRecipe) loopKernel {
	nsteps := uint64(len(bp.steps))
	tmpl := bp.tmpl
	return func(m *Machine, fr *frame) *blockPlan {
		// A vector type the platform cannot run cuts the body short of
		// its first op: the first iteration runs the ops before it and
		// then traps, as the generic executor would.
		ops := rec.ops
		var illegal ir.Type
		for _, v := range rec.vecTys {
			if v.op < len(ops) && !m.vectorOK(v.ty) {
				ops, illegal = rec.ops[:v.op], v.ty
			}
		}
		if len(m.pendDyn) < len(tmpl) {
			m.pendDyn = make([]machine.RegionDyn, len(tmpl)+64)
		}
		m.pendTmpl, m.pendFrom, m.pendN, m.pendSalt = tmpl, 0, 0, fr.salt
		dyn := m.pendDyn[:len(tmpl)]
		// Clear slots left by earlier regions: ops that carry no
		// dynamic operand never write theirs.
		for i := range dyn {
			dyn[i] = machine.RegionDyn{}
		}
		regs := fr.regs
		for _, k := range rec.consts {
			regs[k.reg] = k.imm
		}
		core := m.hart.Core
		sampling := core.SamplingActive()
		fr.curPC = bp.pc
		iters := uint64(0)
		for {
			// Per-iteration step budget, checked before the iteration
			// executes — the same schedule as the generic block loop.
			m.steps += nsteps
			if m.steps > m.MaxSteps {
				m.kernelIters += iters
				trapf("step budget exceeded (%d)", m.MaxSteps)
			}
			if sampling {
				// The block edge into this iteration: the loop entry,
				// then the back edge of each taken iteration.
				core.FlushEdge()
				core.SetPC(bp.pc)
			}
			taken := false
			for i := range ops {
				op := &ops[i]
				switch op.kind {
				case kLoad:
					m.pendN = i
					addr := uint64(int64(regs[op.a]) + op.off)
					regs[op.dst] = m.loadScalar(addr, op.elem)
					dyn[i].Addr = addr
				case kVecLoad:
					m.pendN = i
					addr := uint64(int64(regs[op.a]) + op.off)
					m.loadLanes(fr.vregDst(op.dst, int(op.lanes)), addr, op.elemSz, op.elem)
					dyn[i].Addr = addr
				case kStore:
					m.pendN = i
					addr := uint64(int64(regs[op.b]) + op.off)
					m.storeScalar(addr, op.elem, regs[op.a])
					dyn[i].Addr = addr
				case kVecStore:
					m.pendN = i
					addr := uint64(int64(regs[op.b]) + op.off)
					m.storeLanes(kvec(fr, op.a), addr, op.elemSz, op.elem)
					dyn[i].Addr = addr
				case kSplat:
					out := fr.vregDst(op.dst, int(op.lanes))
					s := regs[op.a]
					for l := range out {
						out[l] = s
					}
				case kFMA:
					regs[op.dst] = fma32(regs[op.a], regs[op.b], regs[op.c])
				case kVecFMA:
					m.pendN = i
					va, vb, vc := kvec(fr, op.a), kvec(fr, op.b), kvec(fr, op.c)
					out := fr.vregDst(op.dst, int(op.lanes))
					for l := range out {
						out[l] = fma32(va[l], vb[l], vc[l])
					}
				case kAdd:
					regs[op.dst] = regs[op.a] + regs[op.b]
				case kMul:
					regs[op.dst] = regs[op.a] * regs[op.b]
				case kICmp:
					var r uint64
					if kCmp(op.pred, int64(regs[op.a]), int64(regs[op.b])) {
						r = 1
					}
					regs[op.dst] = r
				case kGEP:
					regs[op.dst] = uint64(int64(regs[op.a]) + int64(regs[op.b])*op.scale)
				case kCondBr:
					taken = regs[op.a] != 0
					dyn[i].Taken = taken
				case kCount:
					if m.rt == nil {
						// The generic executor charges the call uop
						// before the callee runs.
						m.pendN = i + 1
						trapf("call to mperf.count with no runtime installed")
					}
					m.rt.Count(int64(regs[op.a]), op.cnt[0], op.cnt[1], op.cnt[2], op.cnt[3])
				}
			}
			if illegal.IsVector() {
				m.pendN = len(ops)
				m.checkVector(illegal)
			}
			if !m.functional {
				core.ExecRegion(tmpl, dyn, fr.salt)
			}
			m.pendN = 0
			iters++
			if !taken {
				break
			}
			for _, mv := range rec.selfMoves {
				if mv.isVec {
					copy(fr.vregDst(mv.dst, mv.lanes), kvec(fr, mv.src))
				} else {
					regs[mv.dst] = regs[mv.src]
				}
			}
		}
		m.kernelHits++
		m.kernelIters += iters
		m.phiMoves(fr, rec.exit, rec.predIdx)
		return rec.exit
	}
}
