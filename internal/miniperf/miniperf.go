// Package miniperf is the reproduction of the paper's profiling tool:
// a wrapper over perf_event_open that (a) identifies the platform from
// CPU ID registers rather than perf's event discovery, (b) works
// around PMU defects by automatically grouping counters under a
// sampling-capable leader (the SpacemiT X60 technique from §3.3), and
// (c) turns the resulting samples into flame graphs and hotspot
// tables (§5.1).
package miniperf

import (
	"fmt"
	"sort"

	"mperf/internal/flamegraph"
	"mperf/internal/isa"
	"mperf/internal/kernel"
	"mperf/internal/platform"
	"mperf/internal/pmu"
	"mperf/internal/sbi"
	"mperf/internal/vm"
)

// Metric selects what a recording samples.
type Metric uint8

// Sampling metrics.
const (
	MetricCycles Metric = iota
	MetricInstructions
)

// String names the metric for report titles.
func (m Metric) String() string {
	if m == MetricInstructions {
		return "instructions"
	}
	return "cycles"
}

// Tool is one attached profiling session.
type Tool struct {
	machine *vm.Machine
	plat    *platform.Platform
}

// Attach identifies the machine's platform through its CPU ID
// registers and prepares a tool instance. Unlike perf, miniperf
// refuses to guess on unknown hardware — detection failures surface
// immediately (§3.3: "it relies solely on CPU identification
// registers").
func Attach(m *vm.Machine) (*Tool, error) {
	p, err := platform.Detect(m.Platform().ID)
	if err != nil {
		return nil, fmt.Errorf("miniperf: platform detection failed: %w", err)
	}
	return &Tool{machine: m, plat: p}, nil
}

// Platform returns the detected platform.
func (t *Tool) Platform() *platform.Platform { return t.plat }

// StatResult is the outcome of a counting session.
type StatResult struct {
	// Values maps event labels to final counts.
	Values map[string]uint64
	// ElapsedSeconds is wall time derived from the cycle counter.
	ElapsedSeconds float64
}

// IPC returns instructions per cycle when both events were counted.
func (r *StatResult) IPC() float64 {
	c, i := r.Values["cycles"], r.Values["instructions"]
	if c == 0 {
		return 0
	}
	return float64(i) / float64(c)
}

// Stat counts the given events around run (the `miniperf stat`
// verb). Counting works on every platform — the X60 defect only
// affects sampling.
func (t *Tool) Stat(events []isa.EventCode, run func() error) (*StatResult, error) {
	k := t.machine.Kernel()
	fds := make([]int, 0, len(events))
	labels := make([]string, 0, len(events))
	defer func() {
		for _, fd := range fds {
			k.Close(fd)
		}
	}()
	for _, ev := range events {
		label := ev.String()
		fd, err := k.PerfEventOpen(kernel.EventAttr{Label: label, Config: ev, Disabled: true}, -1)
		if err != nil {
			return nil, fmt.Errorf("miniperf: opening %s: %w", label, err)
		}
		fds = append(fds, fd)
		labels = append(labels, label)
	}
	startCycles := t.machine.Cycles()
	for _, fd := range fds {
		if err := k.Enable(fd); err != nil {
			return nil, err
		}
	}
	runErr := run()
	for _, fd := range fds {
		k.Disable(fd)
	}
	res := &StatResult{Values: make(map[string]uint64, len(fds))}
	for i, fd := range fds {
		v, err := k.ReadCount(fd)
		if err != nil {
			return nil, err
		}
		res.Values[labels[i]] = v
	}
	res.ElapsedSeconds = float64(t.machine.Cycles()-startCycles) / t.machine.FreqHz()
	if runErr != nil {
		return res, fmt.Errorf("miniperf: workload failed: %w", runErr)
	}
	return res, nil
}

// CanCount reports whether one Stat on platform p can count every
// event at once: it allocates them counters in order, as Stat's
// perf_event_open calls do, on a fresh PMU of p's spec.
func CanCount(p *platform.Platform, events []isa.EventCode) bool {
	fw := sbi.New(pmu.New(p.PMUSpec))
	for _, ev := range events {
		if _, errno := fw.CounterConfigMatching(^uint64(0), ev, sbi.CfgClearValue); errno != sbi.OK {
			return false
		}
	}
	return true
}

// RecordOptions configures a sampling session.
type RecordOptions struct {
	// FreqHz requests samples per second (perf's -F). Default 4000.
	FreqHz uint64
	// Period requests a fixed event period instead (overrides FreqHz).
	Period uint64
}

// Recording holds the samples of one record session.
type Recording struct {
	// Samples are the raw records, in time order.
	Samples []kernel.SampleRecord
	// Lost counts ring-buffer drops.
	Lost uint64
	// LeaderLabel names the event that drove sampling (the workaround
	// makes this differ from "cycles" on defective hardware).
	LeaderLabel string
	// GroupIndex maps member labels ("cycles", "instructions") to their
	// position in each sample's group read.
	GroupIndex map[string]int

	machine *vm.Machine
}

// Record samples the workload (the `miniperf record` verb). This is
// where the paper's workaround lives: on hardware whose cycle/instret
// counters cannot raise overflow interrupts, miniperf transparently
// selects a sampling-capable leader (u_mode_cycle on the X60) and
// attaches cycles and instructions as counting group members, sampled
// on every leader overflow via PERF_SAMPLE_READ + PERF_FORMAT_GROUP.
func (t *Tool) Record(opt RecordOptions, run func() error) (*Recording, error) {
	leaderEvent, leaderLabel, err := t.samplingLeader()
	if err != nil {
		return nil, err
	}
	if opt.FreqHz == 0 && opt.Period == 0 {
		opt.FreqHz = 4000
	}
	k := t.machine.Kernel()
	attr := kernel.EventAttr{
		Label:      leaderLabel,
		Config:     leaderEvent,
		SampleType: kernel.SampleIP | kernel.SampleTID | kernel.SampleTime | kernel.SampleCallchain | kernel.SampleRead | kernel.SamplePeriod,
		ReadFormat: kernel.FormatGroup,
		Disabled:   true,
	}
	if opt.Period > 0 {
		attr.SamplePeriod = opt.Period
	} else {
		attr.SampleFreq = opt.FreqHz
	}
	leaderFD, err := k.PerfEventOpen(attr, -1)
	if err != nil {
		return nil, fmt.Errorf("miniperf: opening sampling leader %s: %w", leaderLabel, err)
	}
	group := []int{leaderFD}
	defer func() {
		for _, fd := range group {
			k.Close(fd)
		}
	}()
	cycFD, err := k.PerfEventOpen(kernel.EventAttr{
		Label: "cycles", Config: isa.EventCycles, Disabled: true,
	}, leaderFD)
	if err != nil {
		return nil, fmt.Errorf("miniperf: attaching cycles member: %w", err)
	}
	group = append(group, cycFD)
	insFD, err := k.PerfEventOpen(kernel.EventAttr{
		Label: "instructions", Config: isa.EventInstructions, Disabled: true,
	}, leaderFD)
	if err != nil {
		return nil, fmt.Errorf("miniperf: attaching instructions member: %w", err)
	}
	group = append(group, insFD)

	if err := k.EnableGroup(leaderFD); err != nil {
		return nil, err
	}
	runErr := run()
	k.DisableGroup(leaderFD)

	rb, err := k.Ring(leaderFD)
	if err != nil {
		return nil, err
	}
	rec := &Recording{
		Samples:     rb.Drain(),
		Lost:        rb.Lost,
		LeaderLabel: leaderLabel,
		GroupIndex:  map[string]int{leaderLabel: 0, "cycles": 1, "instructions": 2},
		machine:     t.machine,
	}
	if runErr != nil {
		return rec, fmt.Errorf("miniperf: workload failed: %w", runErr)
	}
	return rec, nil
}

// samplingLeader chooses the event that drives overflow sampling on
// the detected platform. The decision tree is the heart of the
// workaround:
//
//   - full overflow support → lead with the cycles event itself;
//   - limited support (X60) → lead with the sampling-capable
//     u_mode_cycle vendor counter;
//   - no support (U74) → sampling is impossible; report it plainly.
func (t *Tool) samplingLeader() (isa.EventCode, string, error) {
	switch t.plat.Caps.OverflowIRQ {
	case pmu.OverflowFull:
		return isa.EventCycles, "cycles", nil
	case pmu.OverflowLimited:
		ev := isa.RawEvent(isa.X60EventUModeCycle)
		if !t.plat.PMUSpec.CanSample(ev) {
			return 0, "", fmt.Errorf("miniperf: %s: no known sampling-capable counter", t.plat.Name)
		}
		return ev, "u_mode_cycle", nil
	default:
		return 0, "", fmt.Errorf("miniperf: %s has no overflow interrupt support; sampling unavailable (use stat)", t.plat.Name)
	}
}

// memberDelta returns per-sample deltas of a group member counter.
func (r *Recording) memberDelta(label string) []uint64 {
	idx, ok := r.GroupIndex[label]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(r.Samples))
	var prev uint64
	for _, s := range r.Samples {
		if idx >= len(s.Group) {
			out = append(out, 0)
			continue
		}
		v := s.Group[idx].Value
		if v >= prev {
			out = append(out, v-prev)
		} else {
			out = append(out, 0)
		}
		prev = v
	}
	return out
}

// Stacks folds the recording into weighted stacks for the metric:
// each sample's weight is the metric counter's advance since the
// previous sample, so cycle graphs show time and instruction graphs
// show retired work (§5.1's two flame-graph flavors).
func (r *Recording) Stacks(metric Metric) []flamegraph.Stack {
	weights := r.memberDelta(metric.String())
	stacks := make([]flamegraph.Stack, 0, len(r.Samples))
	for i, s := range r.Samples {
		var w uint64
		if i < len(weights) {
			w = weights[i]
		}
		if w == 0 {
			w = s.Period
		}
		frames := r.symbolizeStack(s)
		if len(frames) == 0 {
			continue
		}
		stacks = append(stacks, flamegraph.Stack{Frames: frames, Weight: w})
	}
	return stacks
}

// symbolizeStack resolves a sample's callchain to root-first function
// names.
func (r *Recording) symbolizeStack(s kernel.SampleRecord) []string {
	chain := s.Callchain
	if len(chain) == 0 && s.IP != 0 {
		chain = []uint64{s.IP}
	}
	frames := make([]string, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- { // leaf-first -> root-first
		if name, ok := r.machine.Symbolize(chain[i]); ok {
			frames = append(frames, name)
		}
	}
	return frames
}

// FlameGraph renders the recording as a flame graph for the metric.
func (r *Recording) FlameGraph(title string, metric Metric) *flamegraph.Graph {
	return flamegraph.New(title, metric.String(), r.Stacks(metric))
}

// Hotspot is one row of the hotspot table (Table 2): a function with
// its share of total cycles, attributed instructions, and the IPC
// computed from the grouped counter deltas.
type Hotspot struct {
	Function     string
	TotalPct     float64
	Cycles       uint64
	Instructions uint64
	IPC          float64
}

// Hotspots aggregates samples per leaf function, ordered by cycle
// share descending.
func (r *Recording) Hotspots() []Hotspot {
	cycD := r.memberDelta("cycles")
	insD := r.memberDelta("instructions")
	type acc struct{ cyc, ins uint64 }
	perFn := make(map[string]*acc)
	var totalCyc uint64
	for i, s := range r.Samples {
		var leaf string
		if name, ok := r.machine.Symbolize(s.IP); ok {
			leaf = name
		} else {
			continue
		}
		a, ok := perFn[leaf]
		if !ok {
			a = &acc{}
			perFn[leaf] = a
		}
		if i < len(cycD) {
			a.cyc += cycD[i]
			totalCyc += cycD[i]
		}
		if i < len(insD) {
			a.ins += insD[i]
		}
	}
	out := make([]Hotspot, 0, len(perFn))
	for fn, a := range perFn {
		h := Hotspot{Function: fn, Cycles: a.cyc, Instructions: a.ins}
		if a.cyc > 0 {
			h.IPC = float64(a.ins) / float64(a.cyc)
		}
		if totalCyc > 0 {
			h.TotalPct = 100 * float64(a.cyc) / float64(totalCyc)
		}
		out = append(out, h)
	}
	sortHotspots(out)
	return out
}

func sortHotspots(hs []Hotspot) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Cycles != hs[j].Cycles {
			return hs[i].Cycles > hs[j].Cycles
		}
		return hs[i].Function < hs[j].Function
	})
}
