// Package pmu models a hardware Performance Monitoring Unit at the
// level the paper's workaround operates on: a file of counters (fixed
// cycle/instret plus programmable mhpmcounters), per-counter event
// selection, inhibit bits, and — critically — per-event overflow
// interrupt capability.
//
// The SpacemiT X60 defect from §3.3 is modelled faithfully: the fixed
// mcycle/minstret counters cannot raise overflow interrupts, while
// three vendor events (u_mode_cycle, m_mode_cycle, s_mode_cycle) can.
// The kernel layer builds perf_event semantics (and the miniperf
// grouping workaround) on top of exactly this interface.
package pmu

import (
	"fmt"

	"mperf/internal/isa"
	"mperf/internal/machine"
)

// OverflowSupport categorizes a platform's sampling capability, as in
// Table 1 of the paper.
type OverflowSupport uint8

// Overflow interrupt support levels.
const (
	OverflowNone    OverflowSupport = iota // SiFive U74: no sampling at all
	OverflowLimited                        // SpacemiT X60: only specific vendor events
	OverflowFull                           // T-Head C910, x86 reference
)

// String renders the support level the way Table 1 prints it.
func (o OverflowSupport) String() string {
	switch o {
	case OverflowNone:
		return "No"
	case OverflowLimited:
		return "Limited"
	case OverflowFull:
		return "Yes"
	}
	return fmt.Sprintf("OverflowSupport(%d)", uint8(o))
}

// Fixed counter indices, following the RISC-V counter numbering
// (index 1 is the time CSR and is not a PMU counter).
const (
	CounterCycle   = 0
	CounterInstret = 2
	FirstHPM       = 3
)

// Spec describes one platform's PMU capabilities.
type Spec struct {
	// CounterWidthBits is the implemented width of each counter.
	CounterWidthBits uint
	// NumProgrammable is the number of implemented mhpmcounter
	// registers (indices 3..3+N-1).
	NumProgrammable int
	// Events maps generalized perf event codes to architectural
	// signals. Platforms without an entry for a code cannot count it.
	Events map[isa.EventCode]isa.Signal
	// RawEvents maps vendor event numbers to signals.
	RawEvents map[uint32]isa.Signal
	// Overflow is the platform's overflow interrupt support level.
	Overflow OverflowSupport
	// SamplingEvents lists the only event codes that can raise overflow
	// interrupts when Overflow == OverflowLimited.
	SamplingEvents map[isa.EventCode]bool
}

// Resolve maps an event code to the architectural signal it counts.
func (s *Spec) Resolve(code isa.EventCode) (isa.Signal, bool) {
	if code.IsRaw() {
		sig, ok := s.RawEvents[code.VendorCode()]
		return sig, ok
	}
	sig, ok := s.Events[code]
	return sig, ok
}

// CanSample reports whether a counter observing code can raise
// overflow interrupts on this platform.
func (s *Spec) CanSample(code isa.EventCode) bool {
	switch s.Overflow {
	case OverflowNone:
		return false
	case OverflowFull:
		_, ok := s.Resolve(code)
		return ok
	case OverflowLimited:
		return s.SamplingEvents[code]
	}
	return false
}

// OverflowHandler is invoked (conceptually in M-mode) each time an
// armed counter crosses its overflow period.
type OverflowHandler func(counter int)

// counter is one hardware counter's state.
type counter struct {
	event     isa.EventCode
	signal    isa.Signal
	hasSignal bool
	value     uint64
	running   bool

	// Sampling state: when armed, the handler fires every period counts.
	armed        bool
	period       uint64
	nextOverflow uint64
}

// PMU is the per-hart performance monitoring unit. It implements
// machine.EventSink so a core can stream architectural signals into it.
type PMU struct {
	spec     Spec
	counters []counter
	inhibit  uint64 // bit i set = counter i inhibited (mcountinhibit)
	handler  OverflowHandler
	mask     uint64 // counter width mask

	// bySignal lists running counter indices per signal for fast Apply.
	bySignal [isa.NumSignals][]int
	dirty    bool // bySignal needs rebuild
	// watchMask caches, per isa.Signal bit, whether any running
	// uninhibited counter observes that signal; zero means the whole
	// PMU is idle and the core skips event delivery entirely.
	watchMask uint64
	// sampling caches whether any running uninhibited counter is armed
	// for overflow interrupts (rebuilt with bySignal); while false,
	// Apply is pure accumulation and the core may batch deliveries.
	sampling bool
	// armed lists the running, uninhibited, armed counters (rebuilt
	// with bySignal); headCycles and headInstret are the headrooms
	// Headroom reports, refreshed by rebuild and after every Apply
	// while sampling.
	armed                   []int
	headCycles, headInstret uint64
}

// New builds a PMU from the spec; it panics on malformed specs because
// they are compiled-in platform constants.
func New(spec Spec) *PMU {
	if spec.CounterWidthBits == 0 || spec.CounterWidthBits > 64 {
		panic("pmu: counter width must be in (0,64]")
	}
	if spec.NumProgrammable < 0 || spec.NumProgrammable > 29 {
		panic("pmu: programmable counter count must be in [0,29]")
	}
	p := &PMU{
		spec:     spec,
		counters: make([]counter, FirstHPM+spec.NumProgrammable),
	}
	if spec.CounterWidthBits == 64 {
		p.mask = ^uint64(0)
	} else {
		p.mask = 1<<spec.CounterWidthBits - 1
	}
	// Fixed counters have immutable event bindings.
	p.counters[CounterCycle] = counter{
		event: isa.EventCycles, signal: isa.SigCycle, hasSignal: true,
	}
	p.counters[CounterInstret] = counter{
		event: isa.EventInstructions, signal: isa.SigInstret, hasSignal: true,
	}
	p.dirty = true
	return p
}

// Spec returns the PMU's capability description.
func (p *PMU) Spec() *Spec { return &p.spec }

// NumCounters returns the size of the counter file (including the
// unimplemented time slot at index 1, which mirrors hardware layout).
func (p *PMU) NumCounters() int { return len(p.counters) }

// SetOverflowHandler installs the machine-mode overflow callback.
func (p *PMU) SetOverflowHandler(h OverflowHandler) { p.handler = h }

// validIndex reports whether idx denotes an implemented counter.
func (p *PMU) validIndex(idx int) bool {
	return idx >= 0 && idx < len(p.counters) && idx != 1
}

// IsFixed reports whether idx is one of the fixed-function counters.
func IsFixed(idx int) bool { return idx == CounterCycle || idx == CounterInstret }

// Configure programs counter idx to observe the given event. Fixed
// counters only accept their own event; programmable counters accept
// any event the platform can resolve.
func (p *PMU) Configure(idx int, code isa.EventCode) error {
	if !p.validIndex(idx) {
		return fmt.Errorf("pmu: no counter %d", idx)
	}
	sig, ok := p.spec.Resolve(code)
	if !ok {
		return fmt.Errorf("pmu: platform cannot count event %v", code)
	}
	c := &p.counters[idx]
	if IsFixed(idx) {
		if c.event != code {
			return fmt.Errorf("pmu: counter %d is fixed to %v", idx, c.event)
		}
		return nil
	}
	c.event = code
	c.signal = sig
	c.hasSignal = true
	p.dirty = true
	return nil
}

// Start begins counting on idx. If setValue is true the counter is
// first loaded with value (how the kernel seeds -period on hardware).
func (p *PMU) Start(idx int, value uint64, setValue bool) error {
	if !p.validIndex(idx) {
		return fmt.Errorf("pmu: no counter %d", idx)
	}
	c := &p.counters[idx]
	if !c.hasSignal {
		return fmt.Errorf("pmu: counter %d started before configuration", idx)
	}
	if setValue {
		c.value = value & p.mask
		if c.armed {
			c.nextOverflow = c.value + c.period
		}
	}
	c.running = true
	p.dirty = true
	return nil
}

// Stop halts counting on idx (the counter keeps its value).
func (p *PMU) Stop(idx int) error {
	if !p.validIndex(idx) {
		return fmt.Errorf("pmu: no counter %d", idx)
	}
	p.counters[idx].running = false
	p.dirty = true
	return nil
}

// Read returns the current value of counter idx.
func (p *PMU) Read(idx int) (uint64, error) {
	if !p.validIndex(idx) {
		return 0, fmt.Errorf("pmu: no counter %d", idx)
	}
	return p.counters[idx].value, nil
}

// Arm enables overflow interrupts on idx with the given period. It
// fails if the platform cannot sample the counter's event — this is
// exactly the X60 limitation the miniperf workaround routes around.
func (p *PMU) Arm(idx int, period uint64) error {
	if !p.validIndex(idx) {
		return fmt.Errorf("pmu: no counter %d", idx)
	}
	if period == 0 {
		return fmt.Errorf("pmu: overflow period must be positive")
	}
	c := &p.counters[idx]
	if !c.hasSignal {
		return fmt.Errorf("pmu: counter %d armed before configuration", idx)
	}
	if !p.spec.CanSample(c.event) {
		return fmt.Errorf("pmu: event %v cannot raise overflow interrupts on this platform", c.event)
	}
	c.armed = true
	c.period = period
	c.nextOverflow = c.value + period
	p.dirty = true
	return nil
}

// Disarm disables overflow interrupts on idx.
func (p *PMU) Disarm(idx int) error {
	if !p.validIndex(idx) {
		return fmt.Errorf("pmu: no counter %d", idx)
	}
	p.counters[idx].armed = false
	p.dirty = true
	return nil
}

// SetInhibit writes the mcountinhibit register: bit i set stops
// counter i regardless of its running state.
func (p *PMU) SetInhibit(mask uint64) {
	p.inhibit = mask
	p.dirty = true
}

// Inhibit returns the current mcountinhibit value.
func (p *PMU) Inhibit() uint64 { return p.inhibit }

// rebuild refreshes the per-signal dispatch lists.
func (p *PMU) rebuild() {
	for i := range p.bySignal {
		p.bySignal[i] = p.bySignal[i][:0]
	}
	p.watchMask = 0
	p.armed = p.armed[:0]
	for i := range p.counters {
		c := &p.counters[i]
		if c.running && c.hasSignal && p.inhibit&(1<<uint(i)) == 0 {
			p.bySignal[c.signal] = append(p.bySignal[c.signal], i)
			p.watchMask |= 1 << uint(c.signal)
			if c.armed {
				p.armed = append(p.armed, i)
			}
		}
	}
	p.sampling = len(p.armed) > 0
	p.dirty = false
	p.refreshHeadroom()
}

// cycleLike covers the signals whose delta in any delivered batch is
// at most the batch's cycle delta: cycles and the three mode-cycle
// signals.
const cycleLike = 1<<uint(isa.SigCycle) | 1<<uint(isa.SigUModeCycle) |
	1<<uint(isa.SigSModeCycle) | 1<<uint(isa.SigMModeCycle)

// refreshHeadroom recomputes, over the armed counters, the smallest
// distance to the next overflow among those on a cycle-like signal and
// among those on instret. An armed counter on any other signal sets
// both to 0: no time delta bounds its events.
func (p *PMU) refreshHeadroom() {
	p.headCycles, p.headInstret = ^uint64(0), ^uint64(0)
	for _, idx := range p.armed {
		c := &p.counters[idx]
		var room uint64
		if c.nextOverflow > c.value {
			room = c.nextOverflow - c.value
		}
		switch {
		case cycleLike&(1<<uint(c.signal)) != 0:
			p.headCycles = min(p.headCycles, room)
		case c.signal == isa.SigInstret:
			p.headInstret = min(p.headInstret, room)
		default:
			p.headCycles, p.headInstret = 0, 0
			return
		}
	}
}

// WatchMask implements machine.EventSink: it reports which signals
// currently have a running counter, letting the core skip batch
// construction on quiet harts and unobserved signals elsewhere.
func (p *PMU) WatchMask() uint64 {
	if p.dirty {
		p.rebuild()
	}
	return p.watchMask
}

// SamplingActive implements machine.SamplingSink: it reports whether
// any running, uninhibited counter is armed for overflow interrupts.
// While false, Apply only accumulates, so delta delivery is additive
// and the core may coalesce block-edge flushes into region-granular
// batches without changing any counter value.
func (p *PMU) SamplingActive() bool {
	if p.dirty {
		p.rebuild()
	}
	return p.sampling
}

// Headroom implements machine.SamplingSink: a delivery whose cycle
// delta is below cycles and whose instret delta is below instret cannot
// make any armed counter overflow. Without an armed counter both are
// the maximum uint64.
func (p *PMU) Headroom() (cycles, instret uint64) {
	if p.dirty {
		p.rebuild()
	}
	return p.headCycles, p.headInstret
}

// Apply implements machine.EventSink: it accumulates signal deltas
// into every running counter observing those signals, firing overflow
// interrupts as thresholds are crossed.
func (p *PMU) Apply(b *machine.DeltaBatch) {
	if p.dirty {
		p.rebuild()
	}
	for i := 0; i < b.N; i++ {
		list := p.bySignal[b.Sig[i]]
		if len(list) == 0 {
			continue
		}
		delta := b.Val[i]
		for _, idx := range list {
			c := &p.counters[idx]
			c.value = (c.value + delta) & p.mask
			if !c.armed {
				continue
			}
			for c.value >= c.nextOverflow {
				c.nextOverflow += c.period
				if p.handler != nil {
					p.handler(idx)
				}
			}
		}
	}
	if p.sampling {
		p.refreshHeadroom()
	}
}

// Reset stops and clears every counter.
func (p *PMU) Reset() {
	for i := range p.counters {
		c := &p.counters[i]
		c.value = 0
		c.running = false
		c.armed = false
		if !IsFixed(i) {
			c.hasSignal = false
		}
	}
	p.inhibit = 0
	p.dirty = true
}

// EventOf returns the event a counter currently observes.
func (p *PMU) EventOf(idx int) (isa.EventCode, error) {
	if !p.validIndex(idx) {
		return 0, fmt.Errorf("pmu: no counter %d", idx)
	}
	c := &p.counters[idx]
	if !c.hasSignal {
		return 0, fmt.Errorf("pmu: counter %d not configured", idx)
	}
	return c.event, nil
}

// Running reports whether counter idx is actively counting.
func (p *PMU) Running(idx int) bool {
	if !p.validIndex(idx) {
		return false
	}
	return p.counters[idx].running && p.inhibit&(1<<uint(idx)) == 0
}
