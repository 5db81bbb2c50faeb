// Package tma implements a level-1 Top-Down Microarchitecture Analysis
// over the perf counter stack — the extension the paper's §6 names as
// the primary future direction for miniperf ("achieving even partial
// TMA support would provide users with a much more systematic way to
// diagnose performance limitations beyond the memory/compute focus of
// the Roofline model").
//
// The classic TMA level 1 splits issue slots into four categories:
//
//	Retiring         — slots that retired useful work
//	Bad Speculation  — slots wasted on squashed (mispredicted) work
//	Frontend Bound   — slots starved of instructions
//	Backend Bound    — slots stalled on data/memory dependencies
//
// Exactly as the paper anticipates, the mapping depends on which events
// a platform's PMU exposes: cycles, instructions, branch misses, and a
// stall-cycle event. Platforms lacking any of them (the SpacemiT X60's
// PMU exposes all four in this model; a PMU without stalled-cycles
// would not) report an explicit capability error rather than a guess.
package tma

import (
	"fmt"
	"slices"
	"strings"

	"mperf/internal/isa"
	"mperf/internal/miniperf"
	"mperf/internal/platform"
	"mperf/internal/vm"
)

// Breakdown is the level-1 slot accounting. The four fractions sum to
// 1 (clamped against model skew).
type Breakdown struct {
	Retiring       float64
	BadSpeculation float64
	FrontendBound  float64
	BackendBound   float64

	// Raw inputs, for drill-down reporting.
	Cycles        uint64
	Instructions  uint64
	BranchMisses  uint64
	StallCycles   uint64
	SlotsPerCycle int
}

// Dominant returns the name of the dominant category — the "follow
// this arrow down the hierarchy" answer TMA exists to give.
func (b *Breakdown) Dominant() string {
	name, best := "Retiring", b.Retiring
	if b.BadSpeculation > best {
		name, best = "Bad Speculation", b.BadSpeculation
	}
	if b.FrontendBound > best {
		name, best = "Frontend Bound", b.FrontendBound
	}
	if b.BackendBound > best {
		name, best = "Backend Bound", b.BackendBound
	}
	return name
}

// String renders the breakdown as miniperf's topdown verb prints it.
func (b *Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Top-Down level 1 (%d slots/cycle):\n", b.SlotsPerCycle)
	fmt.Fprintf(&sb, "  Retiring         %5.1f%%\n", 100*b.Retiring)
	fmt.Fprintf(&sb, "  Bad Speculation  %5.1f%%\n", 100*b.BadSpeculation)
	fmt.Fprintf(&sb, "  Frontend Bound   %5.1f%%\n", 100*b.FrontendBound)
	fmt.Fprintf(&sb, "  Backend Bound    %5.1f%%\n", 100*b.BackendBound)
	fmt.Fprintf(&sb, "  → dominant: %s\n", b.Dominant())
	return sb.String()
}

// requiredEvents is the minimal event set for level 1.
var requiredEvents = []isa.EventCode{
	isa.EventCycles,
	isa.EventInstructions,
	isa.EventBranchMisses,
	isa.EventStalledCycles,
}

// Supported reports whether the platform's PMU exposes the events
// level-1 TMA needs (the per-platform capability mapping the paper
// flags as the hard part of bringing TMA to RISC-V).
func Supported(p *platform.Platform) error {
	var missing []string
	for _, ev := range requiredEvents {
		if _, ok := p.PMUSpec.Resolve(ev); !ok {
			missing = append(missing, ev.String())
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("tma: %s PMU lacks required events: %s",
			p.Name, strings.Join(missing, ", "))
	}
	return nil
}

// Measure counts the four events around the workload and computes the
// level-1 breakdown using the platform's issue width and mispredict
// penalty as the slot model.
func Measure(m *vm.Machine, run func() error) (*Breakdown, error) {
	tool, err := miniperf.Attach(m)
	if err != nil {
		return nil, err
	}
	p := tool.Platform()
	if err := Supported(p); err != nil {
		return nil, err
	}
	res, err := tool.Stat(requiredEvents, run)
	if err != nil {
		return nil, err
	}
	return FromValues(p, res.Values)
}

// Events returns the level-1 event set that Measure counts.
func Events() []isa.EventCode { return slices.Clone(requiredEvents) }

// FromValues computes the breakdown from the values of a stat run
// that counted Events (and possibly more), keyed by event label, with
// the platform's issue width and mispredict penalty as the slot model.
func FromValues(p *platform.Platform, values map[string]uint64) (*Breakdown, error) {
	return FromCounts(
		values["cycles"],
		values["instructions"],
		values["branch-misses"],
		values["stalled-cycles"],
		p.Core.IssueWidth,
		p.Core.MispredictPenalty,
	)
}

// FromCounts computes the breakdown from raw counter values:
//
//	slots          = width × cycles
//	retiring       = instructions / slots
//	badSpeculation = branchMisses × penalty × width / slots
//	backendBound   = stallCycles × width / slots
//	frontendBound  = remainder
//
// The fractions are clamped into [0,1] and normalized, since counter
// models (like real PMUs) overlap categories slightly.
func FromCounts(cycles, instructions, branchMisses, stallCycles uint64,
	width int, penalty uint64) (*Breakdown, error) {

	if cycles == 0 {
		return nil, fmt.Errorf("tma: zero cycles measured")
	}
	if width <= 0 {
		return nil, fmt.Errorf("tma: issue width must be positive")
	}
	slots := float64(width) * float64(cycles)
	b := &Breakdown{
		Cycles:        cycles,
		Instructions:  instructions,
		BranchMisses:  branchMisses,
		StallCycles:   stallCycles,
		SlotsPerCycle: width,
	}
	b.Retiring = float64(instructions) / slots
	b.BadSpeculation = float64(branchMisses) * float64(penalty) * float64(width) / slots
	b.BackendBound = float64(stallCycles) * float64(width) / slots

	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	b.Retiring = clamp(b.Retiring)
	b.BadSpeculation = clamp(b.BadSpeculation)
	b.BackendBound = clamp(b.BackendBound)
	sum := b.Retiring + b.BadSpeculation + b.BackendBound
	if sum > 1 {
		// Categories overlap (a stall cycle can also hide a mispredict
		// refill); scale the blame proportionally, as the approximated
		// TMA implementations on RISC-V do.
		b.Retiring /= sum
		b.BadSpeculation /= sum
		b.BackendBound /= sum
		sum = 1
	}
	b.FrontendBound = 1 - sum
	return b, nil
}
