package machine

import (
	"mperf/internal/isa"
	"mperf/internal/mem"
)

// DeltaBatch carries architectural signal increments: the deltas
// accumulated since the previous flush. It is reused across calls to
// avoid allocation on the hot path; sinks must not retain it.
type DeltaBatch struct {
	N   int
	Sig [24]isa.Signal
	Val [24]uint64
}

// Add appends one signal increment (no-op for zero deltas).
func (b *DeltaBatch) Add(s isa.Signal, v uint64) {
	if v == 0 || b.N >= len(b.Sig) {
		return
	}
	b.Sig[b.N] = s
	b.Val[b.N] = v
	b.N++
}

// AddWatched appends one signal increment only when the sink's watch
// mask covers the signal, so unobserved signals cost one branch
// instead of a batch slot and an Apply iteration.
func (b *DeltaBatch) AddWatched(mask uint64, s isa.Signal, v uint64) {
	if v == 0 || mask&(1<<uint(s)) == 0 || b.N >= len(b.Sig) {
		return
	}
	b.Sig[b.N] = s
	b.Val[b.N] = v
	b.N++
}

// EventSink receives the architectural signal stream from a core.
// The PMU model implements this; a nil sink disables event delivery.
type EventSink interface {
	Apply(b *DeltaBatch)
	// WatchMask reports which signals currently have a consumer, as a
	// bitmask indexed by isa.Signal. The sink must not rely on seeing one
	// batch per uop or per block: unless a sampler is armed while a count
	// signal is watched (see SamplingSink), FlushEvents delivers the
	// deltas summed over every block charged since the previous delivery,
	// and under a time-only sampler FlushEdge sums the blocks between
	// deliveries that can fire an overflow. Signals outside the mask, and the signals with no
	// Stats counter (fp_ops, vec_fp_ops, l1i_*), are never delivered.
	// Statistics and timing are unaffected either way.
	WatchMask() uint64
}

const scoreboardSize = 1024 // power of two; slots are hashed with a mask

// Stats aggregates a core's architectural and microarchitectural
// activity since the last Reset.
type Stats struct {
	Cycles      uint64
	Instret     uint64
	Uops        uint64
	StallCycles uint64
	Loads       uint64
	Stores      uint64
	Branches    uint64
	Mispredicts uint64
	Flops       uint64
	SpecFlops   uint64 // FLOPs issued including miss-replayed work
	IntOps      uint64
	L1DMisses   uint64
	L2Misses    uint64
	L1DBytes    uint64 // bytes demanded of L1D by loads/stores
	L2Bytes     uint64 // bytes moved on the L1D<->L2 bus
	DRAMBytes   uint64
	TimerTicks  uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instret) / float64(s.Cycles)
}

// Core is one simulated hardware thread. It is not safe for concurrent
// use: the interpreter drives it single-threaded, like a hart.
type Core struct {
	cfg  Config
	sink EventSink
	memh *mem.Hierarchy
	bp   *branchPredictor

	// expand is cfg.expansion per op class, filled once by NewCore for
	// the charge loops.
	expand [NumOpClasses]uint64

	cycles    uint64
	issued    int    // uops issued in the current cycle
	instretFx uint64 // retired instructions ×256 (fixed point)

	ready [scoreboardSize]uint64 // scoreboard: cycle when a slot's value is ready

	storeBuf  []uint64 // completion cycles of in-flight stores (ring)
	storeHead int

	// fracCycle accumulates issue-bandwidth cycles ×256 for the
	// out-of-order model.
	fracCycle uint64

	// replayFP counts how many upcoming FP uops re-issue due to a
	// recent cache miss (models the documented overcount of FP
	// operation counters on miss-replayed code, which is the mechanism
	// behind the Advisor-vs-IR FLOP gap in Fig 4).
	replayFP int

	priv      isa.PrivMode
	pc        uint64
	nextTimer uint64

	// sinkMask caches the sink's watch mask between refreshes. PMU
	// configuration only changes between workload runs (kernel perf
	// calls never interleave with interpretation), so the interpreter
	// refreshes it once when a run starts instead of paying an
	// interface call per uop or per block.
	sinkMask      uint64
	sinkMaskValid bool
	// sinkSampling caches whether the sink has an armed overflow
	// sampler (see SamplingSink); refreshed with sinkMask. While false,
	// event delivery is purely additive and region execution may
	// coalesce block-edge flushes.
	sinkSampling bool
	// headCycles and headInstret are the sink's overflow headroom (see
	// SamplingSink.Headroom), re-read with sinkMask and after every
	// delivery while sampling. FlushEdge delivers only once the pending
	// cycle or instret delta reaches them; both are 0 unless a time-only
	// sampler is armed, so every edge delivers.
	headCycles, headInstret uint64
	// perUop caches whether the watched signals need a flush after every
	// uop (see needsPerUop); refreshed with sinkMask.
	perUop bool

	// mark holds the statistics at the last flush; FlushEvents delivers
	// Stats − mark for every watched signal. Sample PCs are
	// block-granular anyway, so batching adds at most one block of skid
	// — far below any sampling period — while total counts stay exact.
	// Every flush re-bases the time fields (Cycles, Instret,
	// TimerTicks); the count fields are re-based only while a count
	// signal is watched, and when one starts being watched.
	mark Stats
	// edge holds the time statistics at the last block edge whose
	// delivery FlushEdge skipped; edgePending says whether there is one
	// since the last delivery.
	edge        timeMark
	edgePending bool

	batch DeltaBatch
	stats Stats
}

// NewCore builds a core from the configuration; it panics on an
// invalid configuration (configurations are compiled-in constants).
func NewCore(cfg Config, sink EventSink) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{
		cfg:      cfg,
		sink:     sink,
		memh:     mem.NewHierarchy(cfg.Mem),
		bp:       newBranchPredictor(cfg.PredictorBits, cfg.BTBBits, indirectHistory(cfg)),
		storeBuf: make([]uint64, cfg.StoreBufferEntries),
		priv:     isa.PrivU,
	}
	for class := range c.expand {
		c.expand[class] = uint64(cfg.expansion(OpClass(class)))
	}
	if cfg.TimerIntervalCycles > 0 {
		c.nextTimer = cfg.TimerIntervalCycles
	}
	return c
}

func indirectHistory(cfg Config) uint {
	// Out-of-order front-ends get history-indexed indirect prediction;
	// the in-order parts use plain last-target BTBs.
	if cfg.Kind == OutOfOrder {
		return 12
	}
	return 0
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Mem exposes the core's memory hierarchy.
func (c *Core) Mem() *mem.Hierarchy { return c.memh }

// Cycles returns the current cycle count.
func (c *Core) Cycles() uint64 { return c.cycles }

// Instret returns the retired instruction count.
func (c *Core) Instret() uint64 { return c.instretFx >> 8 }

// Seconds converts the elapsed cycles to wall-clock seconds at the
// core's nominal frequency.
func (c *Core) Seconds() float64 { return float64(c.cycles) / c.cfg.FreqHz }

// Stats returns a snapshot of the accumulated statistics.
func (c *Core) Stats() Stats {
	s := c.stats
	s.Cycles = c.cycles
	s.Instret = c.instretFx >> 8
	s.Branches = c.bp.Branches
	s.Mispredicts = c.bp.Mispredicts
	return s
}

// PC returns the architectural program counter (set by the interpreter
// before each uop so that PMU samples attribute to the right symbol).
func (c *Core) PC() uint64 { return c.pc }

// SetPC records the architectural program counter.
func (c *Core) SetPC(pc uint64) { c.pc = pc }

// Priv returns the current privilege mode.
func (c *Core) Priv() isa.PrivMode { return c.priv }

// SetPriv switches the privilege mode (used by the kernel model for
// syscall/trap entry and exit). Deltas up to a skipped block edge are
// delivered first, in the mode that spent them.
func (c *Core) SetPriv(m isa.PrivMode) {
	if m != c.priv {
		c.flushToEdge()
	}
	c.priv = m
}

// SetSink installs the architectural event sink.
func (c *Core) SetSink(s EventSink) {
	c.sink = s
	c.sinkMaskValid = false
}

// RefreshSinkMask re-reads the sink's watch mask, sampling state and
// overflow headroom, which together decide how often ExecRegion flushes
// (after every uop when needsPerUop says so, otherwise only when the
// caller calls FlushEvents) and when FlushEdge delivers. The interpreter
// calls this when a run starts; anyone reconfiguring counters while
// driving ExecRegion directly should flush, then call it before the
// next region.
func (c *Core) RefreshSinkMask() {
	prevCounts := c.sinkMask & countSigMask
	c.sinkMask = 0
	c.sinkSampling = false
	if c.sink != nil {
		c.sinkMask = c.sink.WatchMask()
		if c.sinkMask != 0 {
			// Sinks that cannot report their sampling state are treated
			// as sampling whenever they watch anything: block-granular
			// delivery is always correct, just not coalescible.
			if s, ok := c.sink.(SamplingSink); ok {
				c.sinkSampling = s.SamplingActive()
			} else {
				c.sinkSampling = true
			}
		}
	}
	c.perUop = needsPerUop(c.sinkMask, c.sinkSampling)
	c.refreshHeadroom()
	if prevCounts == 0 && c.sinkMask&countSigMask != 0 {
		// Count marks go stale while no count signal is watched; start
		// the newly watched counts from now, not from an old flush.
		c.rebaseCountMarks()
	}
	c.sinkMaskValid = true
}

// needsPerUop reports whether a watch mask must be flushed one uop at a
// time: an armed sampler while a count signal is watched, where an
// overflow on an event counter must fire at the uop that crosses it.
// Only the kernel perf API reaches it. Everything else, including every
// counting session and the X60 time-only sampling group, is delivered
// in sums.
func needsPerUop(mask uint64, sampling bool) bool {
	return sampling && mask&countSigMask != 0
}

// refreshHeadroom re-reads the sink's overflow headroom. Only a
// time-only sampler gets any: with a count signal watched, or a sink
// that cannot report it, every edge delivers.
func (c *Core) refreshHeadroom() {
	c.headCycles, c.headInstret = 0, 0
	if !c.sinkSampling || c.sinkMask&countSigMask != 0 {
		return
	}
	if s, ok := c.sink.(SamplingSink); ok {
		c.headCycles, c.headInstret = s.Headroom()
	}
}

// timeMark is the time part of the statistics at one point: the
// fields every flush re-bases.
type timeMark struct{ cycles, instret, timerTicks uint64 }

// FlushEdge is FlushEvents at a block edge while a sampler may be
// armed: it delivers only when the cycles or instret pending since the
// last delivery reach the sink's headroom, so that an overflow can
// fire, and otherwise just records the edge. The delivery then splits
// in two: the deltas up to the previous edge, which cannot fire, and
// the deltas since it, exactly the batch a flush at every edge would
// send here. The split matters because Apply fires an overflow before
// adding the later signals of the same batch, so a group read inside
// the handler would otherwise see members lag the leader. Samples
// therefore keep their PC, time and group reads. Without a time-only
// sampler both headrooms are 0 and every call is a FlushEvents.
func (c *Core) FlushEdge() {
	instret := c.instretFx >> 8
	if c.cycles-c.mark.Cycles < c.headCycles && instret-c.mark.Instret < c.headInstret {
		c.edge = timeMark{c.cycles, instret, c.stats.TimerTicks}
		c.edgePending = true
		return
	}
	c.FlushEvents()
}

// FlushEvents delivers Stats − mark for every watched signal and
// re-bases the marks. It is the unconditional delivery point: the
// caller flushes at region or frame edges (FlushEdge at sampled block
// edges), ExecRegion flushes after every uop when needsPerUop, and a
// run flushes on exit and on traps. Deltas up to an edge FlushEdge
// skipped go first, as their own batch. Sampling overflow fires here,
// so callers must flush before reading counters or changing the sink
// configuration. The time marks are advanced unconditionally, so
// enabling counters mid-session never replays history.
func (c *Core) FlushEvents() {
	c.flushToEdge()
	c.deliver(timeMark{c.cycles, c.instretFx >> 8, c.stats.TimerTicks})
}

// flushToEdge delivers the time deltas up to the last edge FlushEdge
// skipped, if any. They cannot make an armed counter overflow.
func (c *Core) flushToEdge() {
	if c.edgePending {
		c.edgePending = false
		c.deliver(c.edge)
	}
}

// deliver sends the time deltas from the mark to to, plus the count
// deltas while a count signal is watched, as one batch, and re-bases
// the marks. While sampling it then re-reads the sink's headroom,
// since an overflow handler may have re-armed a counter.
func (c *Core) deliver(to timeMark) {
	cycleDelta := to.cycles - c.mark.Cycles
	instretDelta := to.instret - c.mark.Instret
	timerCycles := (to.timerTicks - c.mark.TimerTicks) * c.cfg.TimerHandlerCycles
	c.mark.Cycles, c.mark.Instret, c.mark.TimerTicks = to.cycles, to.instret, to.timerTicks
	mask := c.sinkMask
	if mask == 0 || c.sink == nil {
		return
	}
	b := &c.batch
	b.N = 0
	b.AddWatched(mask, isa.SigCycle, cycleDelta)
	b.AddWatched(mask, isa.SigInstret, instretDelta)
	userCycles := cycleDelta - timerCycles
	switch c.priv {
	case isa.PrivU:
		b.AddWatched(mask, isa.SigUModeCycle, userCycles)
	case isa.PrivS:
		b.AddWatched(mask, isa.SigSModeCycle, userCycles)
	case isa.PrivM:
		b.AddWatched(mask, isa.SigMModeCycle, userCycles)
	}
	b.AddWatched(mask, isa.SigSModeCycle, timerCycles)
	if mask&countSigMask != 0 {
		c.addCountDeltas(b, mask)
	}
	if b.N > 0 {
		c.sink.Apply(b)
		if c.sinkSampling {
			c.refreshHeadroom()
		}
	}
}

// addCountDeltas appends Stats − mark for every watched count signal,
// then re-bases the count marks.
func (c *Core) addCountDeltas(b *DeltaBatch, mask uint64) {
	s, m := &c.stats, &c.mark
	loads, stores := s.Loads-m.Loads, s.Stores-m.Stores
	l1Misses := s.L1DMisses - m.L1DMisses
	b.AddWatched(mask, isa.SigLoad, loads)
	b.AddWatched(mask, isa.SigStore, stores)
	b.AddWatched(mask, isa.SigL1DAccess, loads+stores)
	b.AddWatched(mask, isa.SigBranch, c.bp.Branches-m.Branches)
	b.AddWatched(mask, isa.SigBranchMiss, c.bp.Mispredicts-m.Mispredicts)
	b.AddWatched(mask, isa.SigL1DMiss, l1Misses)
	b.AddWatched(mask, isa.SigL2Access, l1Misses)
	b.AddWatched(mask, isa.SigL2Miss, s.L2Misses-m.L2Misses)
	b.AddWatched(mask, isa.SigStall, s.StallCycles-m.StallCycles)
	b.AddWatched(mask, isa.SigDRAMBytes, s.DRAMBytes-m.DRAMBytes)
	b.AddWatched(mask, isa.SigL1DBytes, s.L1DBytes-m.L1DBytes)
	b.AddWatched(mask, isa.SigL2Bytes, s.L2Bytes-m.L2Bytes)
	b.AddWatched(mask, isa.SigFPFlop, s.Flops-m.Flops)
	b.AddWatched(mask, isa.SigSpecFlop, s.SpecFlops-m.SpecFlops)
	b.AddWatched(mask, isa.SigIntOp, s.IntOps-m.IntOps)
	c.rebaseCountMarks()
}

// rebaseCountMarks moves every mark except the time marks to the
// current statistics; undelivered time deltas stay pending.
func (c *Core) rebaseCountMarks() {
	m := c.mark
	c.mark = c.Stats()
	c.mark.Cycles, c.mark.Instret, c.mark.TimerTicks = m.Cycles, m.Instret, m.TimerTicks
}

// Reset returns the core to its post-construction state.
func (c *Core) Reset() {
	c.cycles = 0
	c.issued = 0
	c.instretFx = 0
	c.fracCycle = 0
	c.replayFP = 0
	c.priv = isa.PrivU
	c.pc = 0
	for i := range c.ready {
		c.ready[i] = 0
	}
	for i := range c.storeBuf {
		c.storeBuf[i] = 0
	}
	c.storeHead = 0
	c.bp.reset()
	c.memh.Reset()
	c.stats = Stats{}
	c.sinkMaskValid = false
	c.mark = Stats{}
	c.edgePending = false
	c.nextTimer = 0
	if c.cfg.TimerIntervalCycles > 0 {
		c.nextTimer = c.cfg.TimerIntervalCycles
	}
}

// timeSigMask covers the pure time/instruction signals: the set the
// X60 sampling workaround watches (mode-cycle leader plus cycles and
// instret members). A sampler armed on one of them still lets regions
// charge in one pass, with FlushEdge delivering the batched deltas at
// the block boundaries where an overflow can fire.
const timeSigMask = 1<<uint(isa.SigCycle) | 1<<uint(isa.SigInstret) |
	1<<uint(isa.SigUModeCycle) | 1<<uint(isa.SigSModeCycle) | 1<<uint(isa.SigMModeCycle)

// countSigMask covers the event signals FlushEvents reconstructs from
// Stats (see addCountDeltas). Together with timeSigMask it is every
// signal the core delivers.
const countSigMask = 1<<uint(isa.SigLoad) | 1<<uint(isa.SigStore) |
	1<<uint(isa.SigL1DAccess) | 1<<uint(isa.SigL1DMiss) | 1<<uint(isa.SigL2Access) |
	1<<uint(isa.SigL2Miss) | 1<<uint(isa.SigBranch) | 1<<uint(isa.SigBranchMiss) |
	1<<uint(isa.SigStall) | 1<<uint(isa.SigDRAMBytes) | 1<<uint(isa.SigL1DBytes) |
	1<<uint(isa.SigL2Bytes) | 1<<uint(isa.SigFPFlop) | 1<<uint(isa.SigSpecFlop) |
	1<<uint(isa.SigIntOp)
