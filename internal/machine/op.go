// Package machine provides cycle-approximate core models for the
// platforms the paper evaluates: in-order dual-issue pipelines (SiFive
// U74, SpacemiT X60), and out-of-order pipelines (T-Head C910, the
// Intel i5-1135G7 reference). A core consumes a stream of micro-ops
// from the IR interpreter, charges cycles through a scoreboard or an
// analytic OoO model, routes memory operations through the cache
// hierarchy, and emits architectural signals (cycles, instret,
// per-privilege-mode cycles, cache and branch events) that the PMU
// model counts.
//
// The models are calibrated for *shape*, not absolute fidelity: the
// published IPC gap on interpreter-style code (X60 ≈ 0.86 vs x86 ≈
// 3.38) and the matmul roofline positions must emerge from pipeline
// behaviour (load-use stalls, mispredict penalties, issue width,
// vector width) rather than from hard-coded results.
package machine

import "fmt"

// OpClass categorizes a micro-op for latency, issue, and accounting
// purposes. The IR interpreter lowers each IR instruction to one uop
// of an appropriate class.
type OpClass uint8

// Micro-op classes.
const (
	OpNop OpClass = iota
	OpIntALU
	OpIntMul
	OpIntDiv
	OpFPAdd // also FP sub, compares
	OpFPMul
	OpFMA
	OpFPDiv
	OpLoad
	OpStore
	OpBranch   // conditional branch
	OpJump     // unconditional direct jump
	OpIndirect // indirect jump (interpreter dispatch)
	OpCall
	OpRet
	OpVecALU
	OpVecFMA
	OpVecLoad
	OpVecStore

	NumOpClasses
)

var opClassNames = [...]string{
	OpNop:      "nop",
	OpIntALU:   "int_alu",
	OpIntMul:   "int_mul",
	OpIntDiv:   "int_div",
	OpFPAdd:    "fp_add",
	OpFPMul:    "fp_mul",
	OpFMA:      "fma",
	OpFPDiv:    "fp_div",
	OpLoad:     "load",
	OpStore:    "store",
	OpBranch:   "branch",
	OpJump:     "jump",
	OpIndirect: "indirect",
	OpCall:     "call",
	OpRet:      "ret",
	OpVecALU:   "vec_alu",
	OpVecFMA:   "vec_fma",
	OpVecLoad:  "vec_load",
	OpVecStore: "vec_store",
}

// String returns the mnemonic for the class.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool {
	return c == OpLoad || c == OpStore || c == OpVecLoad || c == OpVecStore
}

// IsVector reports whether the class is a vector operation.
func (c OpClass) IsVector() bool {
	return c == OpVecALU || c == OpVecFMA || c == OpVecLoad || c == OpVecStore
}

// IsFP reports whether the class retires floating-point work.
func (c OpClass) IsFP() bool {
	switch c {
	case OpFPAdd, OpFPMul, OpFMA, OpFPDiv, OpVecALU, OpVecFMA:
		return true
	}
	return false
}

// IsBranch reports whether the class redirects control flow through
// the branch predictor.
func (c OpClass) IsBranch() bool {
	return c == OpBranch || c == OpIndirect
}

// Uop is one micro-operation presented to a core. Register operands
// are abstract slot numbers assigned by the interpreter; the scoreboard
// hashes them into its dependency table. A negative slot means "no
// operand". A Uop is a static template: its dynamic operands (address,
// branch outcome, indirect target) travel beside it in a RegionDyn.
type Uop struct {
	Class OpClass

	Dst  int32 // destination slot, -1 if none
	Src1 int32 // source slots, -1 if unused
	Src2 int32
	Src3 int32

	Size int32  // access size in bytes (classes with IsMem() == true)
	BrID uint32 // static branch site identifier

	// Retired-work accounting, pre-computed by the interpreter.
	Flops  uint32 // FLOPs retired (FMA = 2/lane, vector = per-lane sum)
	IntOps uint32 // integer ALU ops retired
	Lanes  uint8  // vector lanes (0 or 1 means scalar)
}
