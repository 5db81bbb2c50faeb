package vm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mperf/internal/ir"
	"mperf/internal/isa"
	"mperf/internal/kernel"
	"mperf/internal/machine"
	"mperf/internal/platform"
)

// Compile-time check: the Machine is a valid kernel execution context.
var _ kernel.CPU = (*Machine)(nil)

// Runtime receives the instrumentation intrinsic calls (the mperf.*
// declarations inserted by the passes package). The mperfrt package
// provides the standard implementation.
type Runtime interface {
	// LoopBegin is called when control reaches an instrumented region;
	// it returns the handle passed to the other callbacks.
	LoopBegin(loopID int64) int64
	// LoopEnd closes the region.
	LoopEnd(handle int64)
	// IsInstrumented selects between the baseline and instrumented
	// versions at the dispatch site.
	IsInstrumented() bool
	// Count accumulates one basic block's static cost into the handle.
	Count(handle, bytesLoaded, bytesStored, intOps, fpOps int64)
}

// trap is the interpreter's internal error signal; Run converts it to
// an error.
type trap struct{ msg string }

func (t trap) Error() string { return "vm: " + t.msg }

func trapf(format string, args ...interface{}) {
	panic(trap{fmt.Sprintf(format, args...)})
}

// frame is one activation record. Frames are pooled per machine and
// funcPlan, so the register files and vector buffers are reused across
// activations; SSA dominance (enforced by ir.Verify) guarantees stale
// contents are never observed.
type frame struct {
	fp        *funcPlan
	regs      []uint64
	vregs     [][]uint64
	salt      uint32
	stackSave uint64
	curPC     uint64

	// retVal/retVec carry the return value out of the dispatch loop.
	retVal uint64
	retVec []uint64

	// vscratch holds per-operand-slot broadcast buffers for scalars
	// used in vector context (reused, never escapes the instruction).
	vscratch [3][]uint64
}

// vregDst returns the destination buffer for a vector register,
// reusing the previous allocation when it is large enough. Vector
// registers never alias (results are always copied, not shared), so
// in-place reuse is safe.
func (fr *frame) vregDst(reg int32, lanes int) []uint64 {
	v := fr.vregs[reg]
	if cap(v) >= lanes {
		v = v[:lanes]
	} else {
		v = make([]uint64, lanes)
	}
	fr.vregs[reg] = v
	return v
}

// symbol maps a synthetic address range to a function name.
type symbol struct {
	base, end uint64
	name      string
}

// Memory layout constants.
const (
	memBase = 0x1000 // null guard below
	// stackSize bounds the alloca stack. The catalog workloads place
	// their arrays in globals and use at most a few KiB of allocas per
	// frame, so 4 MiB is generous; instance pooling (Release) means the
	// backing store is zeroed only up to the dirtied high-water mark,
	// not wholesale per machine.
	stackSize      = 4 << 20
	maxCallDepth   = 512
	defaultMaxStep = 1 << 62
)

// Machine is one instance of a compiled Program bound to a simulated
// platform: the analogue of one process running a binary on one hart
// with its kernel. It holds only mutable state — the memory image,
// stack, frame pools, hart and PMU; all compiled code is shared through
// the immutable Program.
type Machine struct {
	prog *Program
	plat *platform.Platform
	hart *platform.Hart
	kern *kernel.Subsystem
	rt   Runtime

	mem []byte
	// memRef is the pooled backing buffer handed back on Release.
	memRef *[]byte
	// dirtyHigh is the high-water mark of stored-to memory (exclusive);
	// Release zeroes only [memBase, dirtyHigh).
	dirtyHigh uint64

	stackTop uint64

	frames   []*frame
	frameSeq uint32
	// framePools recycles frames per funcPlan (indexed by plan index).
	// Pooling is per-machine so that machines sharing one Program never
	// exchange register files.
	framePools [][]*frame

	// MaxSteps bounds interpreted instructions (runaway guard; checked
	// at block granularity, so it may overshoot by one block).
	MaxSteps uint64
	steps    uint64

	vlenBytes int

	// callScratch and callVecScratch carry scalar and vector call
	// arguments into m.call without a per-call allocation (callees copy
	// them before executing, so reuse across nested calls is safe).
	// callVecScratch is indexed by argument position.
	callScratch    []uint64
	callVecScratch [][]uint64
	// phiScratch snapshots phi parallel-copy sources (scalars and
	// flattened vector lanes) before any destination is written.
	phiScratch []uint64

	// Block execution state (superblock.go): the current block's
	// deferred charges. pendTmpl is the block's charge template,
	// pendDyn the recorded dynamic operands (parallel to pendTmpl),
	// [pendFrom, pendFrom+pendN) the not-yet-flushed window, pendSalt
	// the owning frame's scoreboard salt.
	pendTmpl []machine.Uop
	pendDyn  []machine.RegionDyn
	pendFrom int
	pendN    int
	pendSalt uint32

	// functional is set for the duration of a RunFunctional call:
	// regions still execute their semantics but are not handed to the
	// core, so no clock, statistic or cache state moves.
	functional bool
	// noKernels makes every activation run its loops through the
	// generic executor; only this package's tests set it, to compare a
	// kernel with the generic path.
	noKernels bool

	// Coverage counters for -vm-stats (kept out of Profile output).
	kernelHits  uint64
	kernelIters uint64
	statBase    uint64
	execStats   *ExecStats
	// origin is the machine a Sibling was made from; Release folds the
	// coverage counters into it.
	origin *Machine
}

// New compiles a verified module and instantiates it on a fresh hart of
// the platform: Compile + NewMachine for callers that need exactly one
// machine. Repeated instantiation should compile once and share the
// Program.
func New(p *platform.Platform, mod *ir.Module) (*Machine, error) {
	prog, err := Compile(mod)
	if err != nil {
		return nil, err
	}
	return NewMachine(prog, p), nil
}

func align(a, to uint64) uint64 { return (a + to - 1) &^ (to - 1) }

// Platform returns the platform the machine simulates.
func (m *Machine) Platform() *platform.Platform { return m.plat }

// Program returns the shared compiled artifact this machine executes.
func (m *Machine) Program() *Program { return m.prog }

// Hart returns the underlying hardware stack.
func (m *Machine) Hart() *platform.Hart { return m.hart }

// Kernel returns the perf_event subsystem bound to this machine.
func (m *Machine) Kernel() *kernel.Subsystem { return m.kern }

// Module returns the loaded module.
func (m *Machine) Module() *ir.Module { return m.prog.mod }

// SetRuntime installs the instrumentation runtime.
func (m *Machine) SetRuntime(rt Runtime) { m.rt = rt }

// Steps returns the number of interpreted IR instructions so far.
func (m *Machine) Steps() uint64 { return m.steps }

// --- kernel.CPU interface ---

// PC returns the current synthetic program counter.
func (m *Machine) PC() uint64 { return m.hart.Core.PC() }

// Callchain fills buf leaf-first with the virtual call stack.
func (m *Machine) Callchain(buf []uint64) int {
	n := 0
	for i := len(m.frames) - 1; i >= 0 && n < len(buf); i-- {
		buf[n] = m.frames[i].curPC
		n++
	}
	return n
}

// Priv returns the hart's privilege mode.
func (m *Machine) Priv() isa.PrivMode { return m.hart.Core.Priv() }

// Cycles returns the hart's cycle counter.
func (m *Machine) Cycles() uint64 { return m.hart.Core.Cycles() }

// FreqHz returns the core frequency.
func (m *Machine) FreqHz() float64 { return m.plat.Core.FreqHz }

// --- symbolization ---

// Symbolize maps a sampled address to the containing function.
func (m *Machine) Symbolize(addr uint64) (string, bool) {
	syms := m.prog.symbols
	i := sort.Search(len(syms), func(i int) bool { return syms[i].end > addr })
	if i < len(syms) && addr >= syms[i].base {
		return syms[i].name, true
	}
	return "", false
}

// GlobalAddr returns the load address of a global.
func (m *Machine) GlobalAddr(name string) (uint64, error) {
	return m.prog.GlobalAddr(name)
}

// --- host access to simulated memory (for workload setup/checks) ---

func (m *Machine) check(addr uint64, size int) error {
	if !inMem(addr, uint64(size), uint64(len(m.mem))) {
		return fmt.Errorf("vm: address %#x (+%d) out of range", addr, size)
	}
	return nil
}

// inMem reports whether [addr, addr+n) lies inside guest memory, at or
// above memBase and below memLen, without overflow: an addr+n that
// wraps past 2^64 is outside. Every guest access checks its bounds
// with it.
func inMem(addr, n, memLen uint64) bool {
	return addr >= memBase && addr <= memLen && memLen-addr >= n
}

// markDirty advances the dirty high-water mark past a store, so
// Release knows how much memory to scrub before pooling it.
func (m *Machine) markDirty(addr uint64, size int) {
	if end := addr + uint64(size); end > m.dirtyHigh {
		m.dirtyHigh = end
	}
}

// WriteF32 stores a float32 at addr.
func (m *Machine) WriteF32(addr uint64, v float32) error {
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.markDirty(addr, 4)
	binary.LittleEndian.PutUint32(m.mem[addr:], math.Float32bits(v))
	return nil
}

// ReadF32 loads a float32 from addr.
func (m *Machine) ReadF32(addr uint64) (float32, error) {
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(m.mem[addr:])), nil
}

// WriteF64 stores a float64 at addr.
func (m *Machine) WriteF64(addr uint64, v float64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	m.markDirty(addr, 8)
	binary.LittleEndian.PutUint64(m.mem[addr:], math.Float64bits(v))
	return nil
}

// ReadF64 loads a float64 from addr.
func (m *Machine) ReadF64(addr uint64) (float64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(m.mem[addr:])), nil
}

// WriteU64 stores a uint64 at addr.
func (m *Machine) WriteU64(addr uint64, v uint64) error {
	if err := m.check(addr, 8); err != nil {
		return err
	}
	m.markDirty(addr, 8)
	binary.LittleEndian.PutUint64(m.mem[addr:], v)
	return nil
}

// ReadU64 loads a uint64 from addr.
func (m *Machine) ReadU64(addr uint64) (uint64, error) {
	if err := m.check(addr, 8); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(m.mem[addr:]), nil
}

// StoreByte stores one byte at addr.
func (m *Machine) StoreByte(addr uint64, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.markDirty(addr, 1)
	m.mem[addr] = v
	return nil
}

// LoadByte loads one byte from addr.
func (m *Machine) LoadByte(addr uint64) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	return m.mem[addr], nil
}

// --- execution ---

// Run executes the named function with raw-bits scalar arguments and
// returns the raw-bits result.
func (m *Machine) Run(name string, args ...uint64) (uint64, error) {
	return m.run(name, args)
}

// RunFunctional is Run without the timing model: the function executes
// with full semantics, the step budget, traps, loop kernels and runtime
// intrinsics, but no region reaches the core, so its clock, Stats,
// predictor, scoreboard, store buffer, caches and DRAM channel are left
// exactly as they were. Runtime clock reads see a stopped clock. It
// serves runs that only count, such as the roofline's instrumented
// phase.
func (m *Machine) RunFunctional(name string, args ...uint64) (uint64, error) {
	m.functional = true
	defer func() { m.functional = false }()
	return m.run(name, args)
}

func (m *Machine) run(name string, args []uint64) (result uint64, err error) {
	f := m.prog.mod.FuncByName(name)
	if f == nil {
		return 0, fmt.Errorf("vm: no function @%s", name)
	}
	fp, ok := m.prog.plans[f]
	if !ok {
		return 0, fmt.Errorf("vm: function @%s not planned", name)
	}
	if len(f.Params) != len(args) {
		return 0, fmt.Errorf("vm: @%s takes %d args, got %d", name, len(f.Params), len(args))
	}
	if len(fp.vecParams) > 0 {
		return 0, fmt.Errorf("vm: @%s takes vector arguments; runs pass scalars only", name)
	}
	// Traps unwind the Go stack past every active m.call; the frame
	// stack and alloca stack are restored wholesale here instead of via
	// per-call defers, keeping the call hot path defer-free. (Frames
	// in flight at trap time are not returned to their pools — a pool
	// miss later just reallocates.)
	savedFrames := len(m.frames)
	savedStack := m.stackTop
	core := m.hart.Core
	// Counters are reconfigured only between runs (a Stat or Record
	// around this one; interpreted code never calls the perf layer), so
	// one refresh here serves every block of the run.
	core.RefreshSinkMask()
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(trap); ok {
				// Charge the region prefix executed before the trap:
				// every recorded uop completed its semantics. Then
				// deliver the batched deltas, as a return would, so
				// counters read after a failed run match the charged
				// Stats.
				m.flushPending()
				core.FlushEvents()
				m.frames = m.frames[:savedFrames]
				m.stackTop = savedStack
				err = t
				return
			}
			panic(r)
		}
	}()
	res, _ := m.call(fp, args, nil)
	// A sampled frame exit may leave deltas pending (see FlushEdge);
	// post-run counter reads must see settled values.
	core.FlushEvents()
	return res, nil
}

// call executes one function activation: runtime intrinsics directly,
// everything else through the block loop (callFused). vargs holds the
// vector arguments by argument position; scalar positions are unused.
func (m *Machine) call(fp *funcPlan, args []uint64, vargs [][]uint64) (uint64, []uint64) {
	if fp.intrinsic != "" {
		return m.intrinsicCall(fp.intrinsic, args), nil
	}
	return m.callFused(fp, args, vargs)
}

// phiMoves performs the parallel copies for the edge prev -> next.
// Source values (scalars and flattened vector lanes) are snapshotted
// into the machine's scratch buffer before any destination is written,
// preserving parallel-copy semantics without per-edge allocation.
func (m *Machine) phiMoves(fr *frame, next *blockPlan, prevIdx int32) {
	moves := next.movesFrom[prevIdx]
	if len(moves) == 0 {
		return
	}
	vals := m.phiScratch[:0]
	for i := range moves {
		mv := &moves[i]
		if mv.isVec {
			vals = append(vals, m.vector(fr, &mv.src)...)
		} else {
			vals = append(vals, m.scalar(fr, &mv.src))
		}
	}
	m.phiScratch = vals // retain grown capacity
	off := 0
	for i := range moves {
		mv := &moves[i]
		if mv.isVec {
			copy(fr.vregDst(mv.dst, mv.lanes), vals[off:off+mv.lanes])
			off += mv.lanes
		} else {
			fr.regs[mv.dst] = vals[off]
			off++
		}
	}
}

// scalar fetches a scalar operand's raw bits.
func (m *Machine) scalar(fr *frame, op *operand) uint64 {
	if op.reg < 0 {
		return op.imm
	}
	return fr.regs[op.reg]
}

// vector fetches a vector operand.
func (m *Machine) vector(fr *frame, op *operand) []uint64 {
	if op.isVec {
		if v := fr.vregs[op.reg]; v != nil {
			return v
		}
		trapf("vector register read before write")
	}
	if op.vecImm != nil {
		return op.vecImm
	}
	trapf("scalar operand used as vector operand")
	return nil
}

// vectorOK reports whether the platform can execute the vector type.
func (m *Machine) vectorOK(ty ir.Type) bool {
	return m.vlenBytes != 0 && ty.Size() <= m.vlenBytes
}

// checkVector traps when the platform cannot execute the vector type,
// mirroring an illegal-instruction fault on hardware without the
// required vector extension.
func (m *Machine) checkVector(ty ir.Type) {
	if m.vlenBytes == 0 {
		trapf("illegal instruction: %s has no vector unit", m.plat.Name)
	}
	if ty.Size() > m.vlenBytes {
		trapf("illegal instruction: %s exceeds VLEN of %d bytes on %s",
			ty, m.vlenBytes, m.plat.Name)
	}
}

// emit records one micro-op's dynamic operands for the current
// block; the static remainder lives in the block's charge template,
// and the block is charged in one ExecRegion call at the next flush
// point.
func (m *Machine) emit(addr uint64, taken bool, target uint64) {
	d := &m.pendDyn[m.pendFrom+m.pendN]
	d.Addr, d.Taken, d.Target = addr, taken, target
	m.pendN++
}
