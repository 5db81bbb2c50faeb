package vm

import (
	"math"

	"mperf/internal/ir"
)

// This file builds the threaded-dispatch executors: at plan time every
// instruction is specialized into an execFn with its opcode, operand
// kinds, width masks and vector shape pre-resolved, so the interpreter
// hot loop performs one indirect call per instruction instead of a
// switch over the opcode plus per-call closure construction.

// buildExec specializes one instruction into its executor.
func buildExec(in *ir.Instr) execFn {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpSDiv, ir.OpSRem,
		ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpLShr, ir.OpAShr:
		return buildIntBinary(in)
	case ir.OpICmp:
		return buildICmp(in)
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		return buildFPBinary(in)
	case ir.OpFMA:
		return buildFMA(in)
	case ir.OpFCmp:
		return buildFCmp(in)
	case ir.OpZExt, ir.OpSExt, ir.OpTrunc, ir.OpSIToFP, ir.OpFPToSI,
		ir.OpFPExt, ir.OpFPTrunc:
		return buildConvert(in)
	case ir.OpSplat:
		return execSplat
	case ir.OpExtract:
		return execExtract
	case ir.OpReduce:
		return buildReduce(in)
	case ir.OpAlloca:
		return execAlloca
	case ir.OpLoad:
		return buildLoad(in)
	case ir.OpStore:
		return buildStore(in)
	case ir.OpGEP:
		return execGEP
	case ir.OpSelect:
		if in.Ty.IsVector() {
			return execSelectVec
		}
		return execSelectScalar
	case ir.OpCall:
		return execCall
	case ir.OpRet:
		return buildRet(in)
	case ir.OpBr:
		return execBr
	case ir.OpCondBr:
		return execCondBr
	case ir.OpSwitch:
		return execSwitch
	default:
		// Preserve the exec-time trap of the switch-based interpreter:
		// planning must succeed even for dead unexecutable code.
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			trapf("unexecutable opcode %s", st.in.Op)
			return nil
		}
	}
}

// kindMask returns the all-ones mask of a kind's integer width.
func kindMask(k ir.Kind) uint64 {
	w := widthBits(k)
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}

// intKernel pre-binds a two-operand integer op over raw bits: the op
// and width mask are resolved once, not per executed instruction.
func intKernel(op ir.Op, k ir.Kind) func(a, b uint64) uint64 {
	mask := kindMask(k)
	sh := uint(64) - widthBits(k) // sign-extension shift (0 for i64)
	switch op {
	case ir.OpAdd:
		return func(a, b uint64) uint64 { return (a + b) & mask }
	case ir.OpSub:
		return func(a, b uint64) uint64 { return (a - b) & mask }
	case ir.OpMul:
		return func(a, b uint64) uint64 { return (a * b) & mask }
	case ir.OpAnd:
		return func(a, b uint64) uint64 { return a & b }
	case ir.OpOr:
		return func(a, b uint64) uint64 { return a | b }
	case ir.OpXor:
		return func(a, b uint64) uint64 { return (a ^ b) & mask }
	case ir.OpShl:
		return func(a, b uint64) uint64 { return (a << (b & 63)) & mask }
	case ir.OpLShr:
		return func(a, b uint64) uint64 { return (a >> (b & 63)) & mask }
	case ir.OpAShr:
		return func(a, b uint64) uint64 {
			return uint64(int64(a<<sh)>>sh>>(b&63)) & mask
		}
	case ir.OpSDiv:
		return func(a, b uint64) uint64 {
			d := signExt(k, b)
			if d == 0 {
				trapf("integer division by zero")
			}
			return uint64(signExt(k, a)/d) & mask
		}
	case ir.OpSRem:
		return func(a, b uint64) uint64 {
			d := signExt(k, b)
			if d == 0 {
				trapf("integer remainder by zero")
			}
			return uint64(signExt(k, a)%d) & mask
		}
	}
	trapf("bad int op %s", op)
	return nil
}

func buildIntBinary(in *ir.Instr) execFn {
	f := intKernel(in.Op, in.Ty.Kind)
	if in.Ty.IsVector() {
		lanes := in.Ty.Lanes
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			m.checkVector(st.in.Ty)
			va := m.vecOrSplat(fr, &st.args[0], lanes, 0)
			vb := m.vecOrSplat(fr, &st.args[1], lanes, 1)
			out := fr.vregDst(st.dst, lanes)
			for l := range out {
				out[l] = f(va[l], vb[l])
			}
			m.emit(0, false, 0)
			return nil
		}
	}
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		fr.regs[st.dst] = f(m.scalar(fr, &st.args[0]), m.scalar(fr, &st.args[1]))
		m.emit(0, false, 0)
		return nil
	}
}

// fpKernel pre-binds a two-operand float op over raw bits, specialized
// per element kind. Arithmetic goes through float64 exactly like the
// switch-based interpreter did (exact for +,-,*,/ on float32
// operands), so results stay bit-identical.
func fpKernel(op ir.Op, elem ir.Type) func(a, b uint64) uint64 {
	if elem.Kind == ir.KF32 {
		f32 := func(z float64) uint64 { return uint64(math.Float32bits(float32(z))) }
		switch op {
		case ir.OpFAdd:
			return func(a, b uint64) uint64 {
				return f32(float64(math.Float32frombits(uint32(a))) + float64(math.Float32frombits(uint32(b))))
			}
		case ir.OpFSub:
			return func(a, b uint64) uint64 {
				return f32(float64(math.Float32frombits(uint32(a))) - float64(math.Float32frombits(uint32(b))))
			}
		case ir.OpFMul:
			return func(a, b uint64) uint64 {
				return f32(float64(math.Float32frombits(uint32(a))) * float64(math.Float32frombits(uint32(b))))
			}
		default: // OpFDiv
			return func(a, b uint64) uint64 {
				return f32(float64(math.Float32frombits(uint32(a))) / float64(math.Float32frombits(uint32(b))))
			}
		}
	}
	switch op {
	case ir.OpFAdd:
		return func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
		}
	case ir.OpFSub:
		return func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) - math.Float64frombits(b))
		}
	case ir.OpFMul:
		return func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
		}
	default: // OpFDiv
		return func(a, b uint64) uint64 {
			return math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
		}
	}
}

// fmaKernel pre-binds a fused a*b+c over raw bits per element kind
// (float64 arithmetic, matching the switch-based interpreter).
func fmaKernel(elem ir.Type) func(a, b, c uint64) uint64 {
	if elem.Kind == ir.KF32 {
		return func(a, b, c uint64) uint64 {
			z := float64(math.Float32frombits(uint32(a)))*float64(math.Float32frombits(uint32(b))) +
				float64(math.Float32frombits(uint32(c)))
			return uint64(math.Float32bits(float32(z)))
		}
	}
	return func(a, b, c uint64) uint64 {
		return math.Float64bits(math.Float64frombits(a)*math.Float64frombits(b) + math.Float64frombits(c))
	}
}

func buildFPBinary(in *ir.Instr) execFn {
	elem := in.Ty.Elem()
	f := fpKernel(in.Op, elem)
	if in.Ty.IsVector() {
		lanes := in.Ty.Lanes
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			m.checkVector(st.in.Ty)
			va := m.vecOrSplat(fr, &st.args[0], lanes, 0)
			vb := m.vecOrSplat(fr, &st.args[1], lanes, 1)
			out := fr.vregDst(st.dst, lanes)
			for l := range out {
				out[l] = f(va[l], vb[l])
			}
			m.emit(0, false, 0)
			return nil
		}
	}
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		fr.regs[st.dst] = f(m.scalar(fr, &st.args[0]), m.scalar(fr, &st.args[1]))
		m.emit(0, false, 0)
		return nil
	}
}

func buildFMA(in *ir.Instr) execFn {
	f := fmaKernel(in.Ty.Elem())
	if in.Ty.IsVector() {
		lanes := in.Ty.Lanes
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			m.checkVector(st.in.Ty)
			va := m.vecOrSplat(fr, &st.args[0], lanes, 0)
			vb := m.vecOrSplat(fr, &st.args[1], lanes, 1)
			vc := m.vecOrSplat(fr, &st.args[2], lanes, 2)
			out := fr.vregDst(st.dst, lanes)
			for l := range out {
				out[l] = f(va[l], vb[l], vc[l])
			}
			m.emit(0, false, 0)
			return nil
		}
	}
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		fr.regs[st.dst] = f(m.scalar(fr, &st.args[0]), m.scalar(fr, &st.args[1]),
			m.scalar(fr, &st.args[2]))
		m.emit(0, false, 0)
		return nil
	}
}

// intCmp pre-binds a signed comparison predicate.
func intCmp(pred ir.Pred) func(a, b int64) bool {
	switch pred {
	case ir.PredEQ:
		return func(a, b int64) bool { return a == b }
	case ir.PredNE:
		return func(a, b int64) bool { return a != b }
	case ir.PredLT:
		return func(a, b int64) bool { return a < b }
	case ir.PredLE:
		return func(a, b int64) bool { return a <= b }
	case ir.PredGT:
		return func(a, b int64) bool { return a > b }
	default:
		return func(a, b int64) bool { return a >= b }
	}
}

func buildICmp(in *ir.Instr) execFn {
	k := in.Args[0].Type().Kind
	cmp := intCmp(in.Pred)
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		a := signExt(k, m.scalar(fr, &st.args[0]))
		b := signExt(k, m.scalar(fr, &st.args[1]))
		var r uint64
		if cmp(a, b) {
			r = 1
		}
		fr.regs[st.dst] = r
		m.emit(0, false, 0)
		return nil
	}
}

func buildFCmp(in *ir.Instr) execFn {
	elem := in.Args[0].Type().Elem()
	pred := in.Pred
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		a := bitsToFloat(elem, m.scalar(fr, &st.args[0]))
		b := bitsToFloat(elem, m.scalar(fr, &st.args[1]))
		var r bool
		switch pred {
		case ir.PredEQ:
			r = a == b
		case ir.PredNE:
			r = a != b
		case ir.PredLT:
			r = a < b
		case ir.PredLE:
			r = a <= b
		case ir.PredGT:
			r = a > b
		case ir.PredGE:
			r = a >= b
		}
		if r {
			fr.regs[st.dst] = 1
		} else {
			fr.regs[st.dst] = 0
		}
		m.emit(0, false, 0)
		return nil
	}
}

func buildConvert(in *ir.Instr) execFn {
	src := in.Args[0].Type()
	dst := in.Ty
	var conv func(v uint64) uint64
	switch in.Op {
	case ir.OpZExt:
		mask := kindMask(src.Kind)
		conv = func(v uint64) uint64 { return v & mask }
	case ir.OpSExt:
		srcK, dstMask := src.Kind, kindMask(dst.Kind)
		conv = func(v uint64) uint64 { return uint64(signExt(srcK, v)) & dstMask }
	case ir.OpTrunc:
		mask := kindMask(dst.Kind)
		conv = func(v uint64) uint64 { return v & mask }
	case ir.OpSIToFP:
		srcK := src.Kind
		conv = func(v uint64) uint64 { return floatBits(dst, float64(signExt(srcK, v))) }
	case ir.OpFPToSI:
		mask := kindMask(dst.Kind)
		conv = func(v uint64) uint64 { return uint64(int64(bitsToFloat(src, v))) & mask }
	default: // OpFPExt, OpFPTrunc
		conv = func(v uint64) uint64 { return floatBits(dst, bitsToFloat(src, v)) }
	}
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		fr.regs[st.dst] = conv(m.scalar(fr, &st.args[0]))
		m.emit(0, false, 0)
		return nil
	}
}

func execSplat(m *Machine, fr *frame, st *step) *blockPlan {
	m.checkVector(st.in.Ty)
	out := fr.vregDst(st.dst, st.in.Ty.Lanes)
	s := m.scalar(fr, &st.args[0])
	for l := range out {
		out[l] = s
	}
	m.emit(0, false, 0)
	return nil
}

func execExtract(m *Machine, fr *frame, st *step) *blockPlan {
	vec := m.vector(fr, &st.args[0])
	fr.regs[st.dst] = vec[st.in.Lane]
	m.emit(0, false, 0)
	return nil
}

func buildReduce(in *ir.Instr) execFn {
	elem := in.Args[0].Type().Elem()
	if elem.IsFloat() {
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			sum := 0.0
			for _, b := range m.vector(fr, &st.args[0]) {
				sum += bitsToFloat(elem, b)
			}
			fr.regs[st.dst] = floatBits(elem, sum)
			m.emit(0, false, 0)
			return nil
		}
	}
	mask := kindMask(elem.Kind)
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		var sum uint64
		for _, b := range m.vector(fr, &st.args[0]) {
			sum += b
		}
		fr.regs[st.dst] = sum & mask
		m.emit(0, false, 0)
		return nil
	}
}

func execAlloca(m *Machine, fr *frame, st *step) *blockPlan {
	size := uint64(st.in.Scale) * m.scalar(fr, &st.args[0])
	m.stackTop = align(m.stackTop, 16)
	addr := m.stackTop
	m.stackTop += size
	if m.stackTop > uint64(len(m.mem)) {
		trapf("stack overflow in @%s", fr.fp.fn.FName)
	}
	fr.regs[st.dst] = addr
	m.emit(0, false, 0)
	return nil
}

func buildLoad(in *ir.Instr) execFn {
	ty := in.Ty
	if !ty.IsVector() {
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			addr := uint64(int64(m.scalar(fr, &st.args[0])) + st.in.Scale)
			fr.regs[st.dst] = m.loadScalar(addr, ty)
			m.emit(addr, false, 0)
			return nil
		}
	}
	elem := ty.Elem()
	es := uint64(elem.Size())
	lanes := ty.Lanes
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		m.checkVector(ty)
		addr := uint64(int64(m.scalar(fr, &st.args[0])) + st.in.Scale)
		m.loadLanes(fr.vregDst(st.dst, lanes), addr, es, elem)
		m.emit(addr, false, 0)
		return nil
	}
}

func buildStore(in *ir.Instr) execFn {
	ty := in.Args[0].Type()
	if !ty.IsVector() {
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			addr := uint64(int64(m.scalar(fr, &st.args[1])) + st.in.Scale)
			m.storeScalar(addr, ty, m.scalar(fr, &st.args[0]))
			m.emit(addr, false, 0)
			return nil
		}
	}
	elem := ty.Elem()
	es := uint64(elem.Size())
	lanes := ty.Lanes
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		m.checkVector(ty)
		addr := uint64(int64(m.scalar(fr, &st.args[1])) + st.in.Scale)
		m.storeLanes(m.vecOrSplat(fr, &st.args[0], lanes, 0), addr, es, elem)
		m.emit(addr, false, 0)
		return nil
	}
}

func execGEP(m *Machine, fr *frame, st *step) *blockPlan {
	base := m.scalar(fr, &st.args[0])
	idx := int64(m.scalar(fr, &st.args[1]))
	fr.regs[st.dst] = uint64(int64(base) + idx*st.in.Scale)
	m.emit(0, false, 0)
	return nil
}

func execSelectScalar(m *Machine, fr *frame, st *step) *blockPlan {
	pick := 2
	if m.scalar(fr, &st.args[0]) != 0 {
		pick = 1
	}
	fr.regs[st.dst] = m.scalar(fr, &st.args[pick])
	m.emit(0, false, 0)
	return nil
}

func execSelectVec(m *Machine, fr *frame, st *step) *blockPlan {
	pick := 2
	if m.scalar(fr, &st.args[0]) != 0 {
		pick = 1
	}
	// Copy rather than share the picked slice: destination buffers are
	// reused in place, so aliasing two registers would corrupt one.
	src := m.vector(fr, &st.args[pick])
	copy(fr.vregDst(st.dst, len(src)), src)
	m.emit(0, false, 0)
	return nil
}

func execCall(m *Machine, fr *frame, st *step) *blockPlan {
	m.emit(0, false, 0)
	// Charge the pending region prefix (including this call uop) before
	// the callee runs, so callee-side charges and clock reads follow the
	// caller's in program order. The region cursor is saved around the
	// call because the callee reuses the pending buffers.
	m.flushPending()
	savedTmpl, savedFrom, savedSalt := m.pendTmpl, m.pendFrom, m.pendSalt
	// The scratch buffers are safe to reuse across nested calls: the
	// callee copies the arguments into its own register files before
	// executing any instruction.
	cargs := m.callScratch
	if cap(cargs) < len(st.args) {
		cargs = make([]uint64, len(st.args))
		m.callScratch = cargs
	}
	cargs = cargs[:len(st.args)]
	for len(m.callVecScratch) < len(st.args) {
		m.callVecScratch = append(m.callVecScratch, nil)
	}
	vargs := m.callVecScratch
	for j := range st.args {
		a := &st.args[j]
		if a.isVec {
			vargs[j] = append(vargs[j][:0], m.vector(fr, a)...)
			cargs[j] = 0
			continue
		}
		cargs[j] = m.scalar(fr, a)
	}
	res, vres := m.call(st.callee, cargs, vargs)
	m.pendTmpl, m.pendFrom, m.pendSalt = savedTmpl, savedFrom, savedSalt
	m.pendN = 0
	if st.dst >= 0 {
		if st.in.Ty.IsVector() {
			copy(fr.vregDst(st.dst, len(vres)), vres)
		} else {
			fr.regs[st.dst] = res
		}
	}
	// The callee moved the architectural PC; restore it to this block
	// (fr.curPC, set at every block entry) so the remaining uops (and
	// samples) attribute to the caller.
	m.hart.Core.SetPC(fr.curPC)
	return nil
}

func buildRet(in *ir.Instr) execFn {
	if len(in.Args) == 0 {
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			m.emit(0, false, 0)
			fr.retVal, fr.retVec = 0, nil
			return retMarker
		}
	}
	if in.Args[0].Type().IsVector() {
		return func(m *Machine, fr *frame, st *step) *blockPlan {
			m.emit(0, false, 0)
			fr.retVal, fr.retVec = 0, m.vector(fr, &st.args[0])
			return retMarker
		}
	}
	return func(m *Machine, fr *frame, st *step) *blockPlan {
		m.emit(0, false, 0)
		fr.retVal, fr.retVec = m.scalar(fr, &st.args[0]), nil
		return retMarker
	}
}

func execBr(m *Machine, fr *frame, st *step) *blockPlan {
	m.emit(0, false, 0)
	next := st.targets[0]
	m.phiMoves(fr, next, st.blockIdx)
	return next
}

func execCondBr(m *Machine, fr *frame, st *step) *blockPlan {
	cond := m.scalar(fr, &st.args[0]) != 0
	m.emit(0, cond, 0)
	var next *blockPlan
	if cond {
		next = st.targets[0]
	} else {
		next = st.targets[1]
	}
	m.phiMoves(fr, next, st.blockIdx)
	return next
}

func execSwitch(m *Machine, fr *frame, st *step) *blockPlan {
	v := int64(m.scalar(fr, &st.args[0]))
	next := st.targets[0]
	for ci, cv := range st.in.Cases {
		if cv == v {
			next = st.targets[ci+1]
			break
		}
	}
	m.emit(0, false, next.pc)
	m.phiMoves(fr, next, st.blockIdx)
	return next
}
