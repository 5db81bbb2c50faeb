// Package mperfrt is the instrumentation runtime the compiler pass
// targets: the in-process analogue of the paper's libmperf runtime
// (§4.2). It tracks region activations (loop_begin/loop_end), decides
// whether the instrumented or baseline clone runs (is_instrumented,
// controlled per run and optionally per loop — the environment-variable
// mechanism from the paper maps onto SetInstrumented/EnableOnlyLoops),
// and accumulates the per-block counts the instrumented clones report.
package mperfrt

import (
	"fmt"
	"sort"
)

// LoopStats aggregates one instrumented region's observations across
// all its activations.
type LoopStats struct {
	LoopID      int64
	Invocations uint64

	// Counter totals from mperf.count (instrumented runs only).
	BytesLoaded uint64
	BytesStored uint64
	IntOps      uint64
	FPOps       uint64

	// Cycles spent inside the region (sum over activations), from the
	// clock at loop_begin/loop_end. Meaningful in baseline runs for
	// timing and in timed instrumented runs for overhead measurement;
	// zero in a functional run, whose clock stands still.
	Cycles uint64

	// Per-cache-level traffic observed inside the region (sum over
	// activations), captured from the traffic probe when one is
	// installed (SetTrafficProbe); zero otherwise. These feed the
	// hierarchical roofline's per-level arithmetic-intensity points.
	L1Bytes   uint64
	L2Bytes   uint64
	DRAMBytes uint64
}

// Bytes returns total memory traffic.
func (s *LoopStats) Bytes() uint64 { return s.BytesLoaded + s.BytesStored }

// Ops returns total arithmetic operations.
func (s *LoopStats) Ops() uint64 { return s.IntOps + s.FPOps }

// ArithmeticIntensity returns FLOPs per byte of memory traffic, the
// x-axis of the Roofline model.
func (s *LoopStats) ArithmeticIntensity() float64 {
	if b := s.Bytes(); b > 0 {
		return float64(s.FPOps) / float64(b)
	}
	return 0
}

// activation is one live region entry; st is its region's aggregate,
// so Count and LoopEnd charge it without a second lookup.
type activation struct {
	st    *LoopStats
	start uint64
	// Traffic-probe snapshot at entry (valid only when a probe is
	// installed): per-level byte counters are charged as deltas at exit.
	startL1, startL2, startDRAM uint64
}

// Collector implements the vm.Runtime contract.
type Collector struct {
	clock        func() uint64
	traffic      func() (l1, l2, dram uint64)
	instrumented bool
	only         map[int64]bool // nil = all loops

	loops   map[int64]*LoopStats
	active  map[int64]*activation
	current []int64 // activation handle stack
	nextH   int64
}

// New builds a collector over a cycle clock (typically the simulated
// core's cycle counter).
func New(clock func() uint64) *Collector {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	return &Collector{
		clock:  clock,
		loops:  make(map[int64]*LoopStats),
		active: make(map[int64]*activation),
	}
}

// SetInstrumented switches between baseline and instrumented execution
// for subsequent region entries — the runtime knob behind the paper's
// two-phase workflow (Fig 2).
func (c *Collector) SetInstrumented(b bool) { c.instrumented = b }

// SetTrafficProbe installs a per-cache-level byte-counter probe
// (typically reading the simulated hierarchy's cumulative L1/L2/DRAM
// byte counters). While installed, every activation snapshots the
// counters at entry and charges the deltas at exit, giving per-region
// traffic attribution without touching the execution path. A nil probe
// uninstalls it.
func (c *Collector) SetTrafficProbe(probe func() (l1, l2, dram uint64)) {
	c.traffic = probe
}

// EnableOnlyLoops restricts instrumentation to the listed loop IDs
// (the "runtime control over which regions are instrumented" from
// §4.2). Passing none removes the restriction.
func (c *Collector) EnableOnlyLoops(ids ...int64) {
	if len(ids) == 0 {
		c.only = nil
		return
	}
	c.only = make(map[int64]bool, len(ids))
	for _, id := range ids {
		c.only[id] = true
	}
}

// LoopBegin opens an activation and returns its handle.
func (c *Collector) LoopBegin(loopID int64) int64 {
	c.nextH++
	h := c.nextH
	st := c.stats(loopID)
	st.Invocations++
	a := &activation{st: st, start: c.clock()}
	if c.traffic != nil {
		a.startL1, a.startL2, a.startDRAM = c.traffic()
	}
	c.active[h] = a
	c.current = append(c.current, h)
	return h
}

// LoopEnd closes an activation, charging its cycles.
func (c *Collector) LoopEnd(handle int64) {
	a, ok := c.active[handle]
	if !ok {
		return // tolerate unbalanced calls, like the C runtime would
	}
	delete(c.active, handle)
	if n := len(c.current); n > 0 && c.current[n-1] == handle {
		c.current = c.current[:n-1]
	}
	st := a.st
	st.Cycles += c.clock() - a.start
	if c.traffic != nil {
		l1, l2, dram := c.traffic()
		st.L1Bytes += l1 - a.startL1
		st.L2Bytes += l2 - a.startL2
		st.DRAMBytes += dram - a.startDRAM
	}
}

// IsInstrumented reports whether the instrumented clone should run for
// the region most recently entered.
func (c *Collector) IsInstrumented() bool {
	if !c.instrumented {
		return false
	}
	if c.only == nil {
		return true
	}
	if n := len(c.current); n > 0 {
		if a, ok := c.active[c.current[n-1]]; ok {
			return c.only[a.st.LoopID]
		}
	}
	return false
}

// Count accumulates one basic-block execution's static cost.
func (c *Collector) Count(handle, bytesLoaded, bytesStored, intOps, fpOps int64) {
	a, ok := c.active[handle]
	if !ok {
		return
	}
	st := a.st
	st.BytesLoaded += uint64(bytesLoaded)
	st.BytesStored += uint64(bytesStored)
	st.IntOps += uint64(intOps)
	st.FPOps += uint64(fpOps)
}

func (c *Collector) stats(loopID int64) *LoopStats {
	st, ok := c.loops[loopID]
	if !ok {
		st = &LoopStats{LoopID: loopID}
		c.loops[loopID] = st
	}
	return st
}

// Stats returns the aggregate for one loop.
func (c *Collector) Stats(loopID int64) (*LoopStats, bool) {
	st, ok := c.loops[loopID]
	return st, ok
}

// All returns every loop's aggregate, ordered by loop ID.
func (c *Collector) All() []*LoopStats {
	out := make([]*LoopStats, 0, len(c.loops))
	for _, st := range c.loops {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LoopID < out[j].LoopID })
	return out
}

// Reset clears all aggregates and live activations.
func (c *Collector) Reset() {
	c.loops = make(map[int64]*LoopStats)
	c.active = make(map[int64]*activation)
	c.current = nil
}

// String summarizes the collector for debugging.
func (c *Collector) String() string {
	return fmt.Sprintf("mperfrt.Collector{loops=%d, instrumented=%v}", len(c.loops), c.instrumented)
}
