package vm

import (
	"fmt"
	"sort"
	"sync"

	"mperf/internal/ir"
	"mperf/internal/kernel"
	"mperf/internal/platform"
)

// Program is the immutable compiled artifact of one module: everything
// that is a pure function of the verified post-pipeline IR — the
// pre-bound funcPlans and exec funcs, the global-memory layout, the
// symbol table, and (optionally) the seeded initial data image. A
// Program holds no machine state, so one Program is safely shared by
// any number of Machines across goroutines; NewMachine only allocates
// and copies per-instance state.
//
// Programs are platform-portable: the plans depend only on the module
// (the vectorizer pipeline that shaped the module is where platform
// differences enter), so the same Program can instantiate machines on
// different platforms with matching pipeline configurations. Platform
// limits such as a missing vector unit are enforced at execution time,
// exactly as on hardware.
type Program struct {
	mod *ir.Module

	plans    map[*ir.Func]*funcPlan
	numPlans int
	symbols  []symbol

	globalAddr map[string]uint64
	// stackBase is where the alloca stack starts (globals end, aligned);
	// memSize = stackBase + stackSize is every instance's memory size.
	stackBase uint64
	memSize   uint64

	// image, when set, is the initial content of the global data region
	// [memBase, stackBase) copied into every new machine — the baked
	// result of a deterministic per-instance Seed.
	image []byte

	// memPool is the pool of instance memory shared by every program
	// of this memSize (memPoolFor).
	memPool *sync.Pool
}

// memPools recycles instance memory between Release and NewMachine,
// one pool per memory size, shared across programs. Release zeroes
// every byte the machine dirtied, and equal memSize implies equal
// stackBase (the stack size is a constant), so a buffer released by
// any program of that size is indistinguishable from a fresh
// allocation for any other.
var memPools sync.Map // uint64 memSize -> *sync.Pool

// memPoolFor returns the shared instance-memory pool for size.
func memPoolFor(size uint64) *sync.Pool {
	p, _ := memPools.LoadOrStore(size, &sync.Pool{New: func() any {
		b := make([]byte, size)
		return &b
	}})
	return p.(*sync.Pool)
}

// Compile verifies, freezes and plans a module into an immutable
// Program. The module must not be mutated afterwards (ir.Freeze makes
// the construction APIs enforce this).
func Compile(mod *ir.Module) (*Program, error) {
	return compileModule(mod, true)
}

// compileModule is the shared planning path behind Compile and
// DecodeArtifact. verify gates the structural SSA check: fresh modules
// always verify, while checksummed artifacts decode from bytes the
// encoder produced only for already-verified modules, so re-planning
// them skips straight to layout and plan binding.
func compileModule(mod *ir.Module, verify bool) (*Program, error) {
	if verify {
		if err := ir.Verify(mod); err != nil {
			return nil, fmt.Errorf("vm: module does not verify: %w", err)
		}
	}
	mod.Freeze()
	p := &Program{
		mod:        mod,
		globalAddr: make(map[string]uint64),
		plans:      make(map[*ir.Func]*funcPlan),
	}

	// Lay out globals then the alloca stack.
	addr := uint64(memBase)
	for _, g := range mod.Globals {
		addr = align(addr, 64)
		p.globalAddr[g.GName] = addr
		addr += uint64(g.SizeBytes())
	}
	p.stackBase = align(addr, 64)
	p.memSize = p.stackBase + stackSize

	pl := &planner{prog: p, plans: p.plans, nextBase: 0x400000}
	if err := pl.planModule(mod); err != nil {
		return nil, err
	}
	p.numPlans = len(p.plans)
	for f, fp := range p.plans {
		p.symbols = append(p.symbols, symbol{base: fp.base, end: fp.base + fp.size, name: f.FName})
	}
	sort.Slice(p.symbols, func(i, j int) bool { return p.symbols[i].base < p.symbols[j].base })

	p.memPool = memPoolFor(p.memSize)
	return p, nil
}

// Module returns the frozen module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// GlobalAddr returns the load address of a global; the layout is a
// program-level constant shared by every machine.
func (p *Program) GlobalAddr(name string) (uint64, error) {
	a, ok := p.globalAddr[name]
	if !ok {
		return 0, fmt.Errorf("vm: no global @%s", name)
	}
	return a, nil
}

// DataSize returns the size of the global data region in bytes.
func (p *Program) DataSize() int { return int(p.stackBase - memBase) }

// SetDataImage installs the initial content of the global data region,
// copied into every machine NewMachine creates from then on. img must
// cover exactly the data region (see DataSize and Machine.SnapshotData).
// Call it once, before the program is shared across goroutines; it is
// how a deterministic Seed is baked into the artifact so that warm
// instantiation is a plain memory copy.
func (p *Program) SetDataImage(img []byte) error {
	if len(img) != p.DataSize() {
		return fmt.Errorf("vm: data image is %d bytes, program data region is %d", len(img), p.DataSize())
	}
	if p.image != nil {
		return fmt.Errorf("vm: program already has a data image")
	}
	p.image = append([]byte(nil), img...)
	return nil
}

// NewMachine instantiates the program on a fresh hart of the platform.
// Only mutable per-instance state is allocated (or recycled from the
// pool of its memory size): the memory image, stack, frame pools and
// PMU. The compiled plans are shared with every other machine of this
// program.
func NewMachine(p *Program, plat *platform.Platform) *Machine {
	return newMachine(p, plat, p.image)
}

// Sibling instantiates m's program again on a fresh hart of m's
// platform, for a run concurrent with m's own: the analogue of a
// second process started from the same binary with the same input.
// Its global data starts as a copy of m's, and its step budget is
// what remains of m's. It has no ExecStats sink of its own; Release
// folds its step and kernel counters into m instead, so m's Steps and
// coverage count both runs exactly once. Release the sibling on the
// goroutine that owns m, after the sibling's run has finished and
// before m's own Release.
func (m *Machine) Sibling() *Machine {
	s := newMachine(m.prog, m.plat, m.mem[memBase:min(m.dirtyHigh, m.prog.stackBase)])
	s.MaxSteps = m.MaxSteps - min(m.steps, m.MaxSteps)
	s.origin = m
	return s
}

// newMachine instantiates p with data as the initial content of the
// global data region from memBase (shorter data leaves the rest zero).
func newMachine(p *Program, plat *platform.Platform, data []byte) *Machine {
	m := &Machine{
		prog:      p,
		plat:      plat,
		hart:      plat.NewHart(),
		MaxSteps:  defaultMaxStep,
		vlenBytes: plat.Core.VectorLanes32 * 4,
	}
	m.kern = kernel.New(m.hart.Firmware, m)

	memRef := p.memPool.Get().(*[]byte)
	m.memRef = memRef
	m.mem = *memRef
	m.stackTop = p.stackBase
	m.dirtyHigh = memBase + uint64(copy(m.mem[memBase:p.stackBase], data))
	m.framePools = make([][]*frame, p.numPlans)
	return m
}

// Release returns the machine's instance memory to the pool of its
// memory size, zeroing only the region dirtied since instantiation
// (tracked as a high-water mark over all stores), so sweeps stop
// paying a full stack-sized memset per warm instantiation. A sibling
// folds its coverage counters into its origin machine. The machine
// must not be used after Release; releasing twice is a no-op.
func (m *Machine) Release() {
	if m.mem == nil {
		return
	}
	m.FlushExecStats()
	if o := m.origin; o != nil {
		o.steps += m.steps - m.statBase
		o.kernelHits += m.kernelHits
		o.kernelIters += m.kernelIters
	}
	hi := m.dirtyHigh
	if hi > uint64(len(m.mem)) {
		hi = uint64(len(m.mem))
	}
	clearRegion := m.mem[memBase:hi]
	for i := range clearRegion {
		clearRegion[i] = 0
	}
	m.prog.memPool.Put(m.memRef)
	m.mem, m.memRef = nil, nil
	m.frames, m.framePools = nil, nil
}

// SnapshotData copies out the machine's global data region — the bytes
// a Seed function wrote — in the format SetDataImage accepts.
func (m *Machine) SnapshotData() []byte {
	out := make([]byte, m.prog.stackBase-memBase)
	copy(out, m.mem[memBase:m.prog.stackBase])
	return out
}
