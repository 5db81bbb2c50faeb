package vm

import (
	"encoding/binary"
	"math"

	"mperf/internal/ir"
)

// This file implements instruction semantics: integer arithmetic with
// width masking, IEEE float32/float64 arithmetic, conversions, vector
// lane-wise execution, and memory access through the simulated cache
// hierarchy.

// widthBits returns the integer width of a scalar kind.
func widthBits(k ir.Kind) uint {
	switch k {
	case ir.KI1:
		return 1
	case ir.KI8:
		return 8
	case ir.KI16:
		return 16
	case ir.KI32:
		return 32
	default:
		return 64
	}
}

// signExt interprets raw bits as a signed integer of the kind's width.
func signExt(k ir.Kind, v uint64) int64 {
	w := widthBits(k)
	if w >= 64 {
		return int64(v)
	}
	shift := 64 - w
	return int64(v<<shift) >> shift
}

// floatBits encodes a float value into raw register bits for the type.
func floatBits(ty ir.Type, f float64) uint64 {
	if ty.Kind == ir.KF32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// bitsToFloat decodes raw register bits into a float for the type.
func bitsToFloat(ty ir.Type, bits uint64) float64 {
	if ty.Kind == ir.KF32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

// vecOrSplat fetches a vector operand; scalar registers and immediates
// used in vector context are broadcast into the frame's per-slot
// scratch buffer (reused across instructions, so steady-state vector
// execution performs no allocation).
func (m *Machine) vecOrSplat(fr *frame, op *operand, lanes, slot int) []uint64 {
	if op.isVec {
		if v := fr.vregs[op.reg]; v != nil {
			return v
		}
		trapf("vector register read before write")
	}
	out := fr.vscratch[slot]
	if cap(out) >= lanes {
		out = out[:lanes]
	} else {
		out = make([]uint64, lanes)
	}
	fr.vscratch[slot] = out
	s := op.imm
	if op.reg >= 0 {
		s = fr.regs[op.reg]
	}
	for l := range out {
		out[l] = s
	}
	return out
}

func (m *Machine) loadScalar(addr uint64, ty ir.Type) uint64 {
	size := ty.Size()
	if addr < memBase || addr+uint64(size) > uint64(len(m.mem)) {
		trapf("load from invalid address %#x", addr)
	}
	switch size {
	case 1:
		return uint64(m.mem[addr])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.mem[addr:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.mem[addr:]))
	default:
		return binary.LittleEndian.Uint64(m.mem[addr:])
	}
}

func (m *Machine) storeScalar(addr uint64, ty ir.Type, v uint64) {
	size := ty.Size()
	if addr < memBase || addr+uint64(size) > uint64(len(m.mem)) {
		trapf("store to invalid address %#x", addr)
	}
	m.markDirty(addr, size)
	switch size {
	case 1:
		m.mem[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.mem[addr:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.mem[addr:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(m.mem[addr:], v)
	}
}

// intrinsicCall dispatches a runtime intrinsic.
func (m *Machine) intrinsicCall(name string, args []uint64) uint64 {
	if m.rt == nil {
		trapf("call to %s with no runtime installed", name)
	}
	switch name {
	case "mperf.loop_begin":
		return uint64(m.rt.LoopBegin(int64(args[0])))
	case "mperf.loop_end":
		m.rt.LoopEnd(int64(args[0]))
		return 0
	case "mperf.is_instrumented":
		if m.rt.IsInstrumented() {
			return 1
		}
		return 0
	case "mperf.count":
		m.rt.Count(int64(args[0]), int64(args[1]), int64(args[2]), int64(args[3]), int64(args[4]))
		return 0
	}
	trapf("unknown intrinsic %s", name)
	return 0
}
