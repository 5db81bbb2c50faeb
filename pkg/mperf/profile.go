package mperf

import (
	"fmt"
	"strings"

	"mperf/internal/miniperf"
	"mperf/internal/platform"
	"mperf/internal/roofline"
)

// Profile is the single JSON-serializable result of a Session run: one
// platform, one workload, and whatever each collector measured. Fields
// a collector did not populate are omitted from the encoding, so a
// stat-only profile stays small while a full stat+record+roofline+
// topdown run still round-trips through encoding/json losslessly.
type Profile struct {
	Platform   PlatformInfo `json:"platform"`
	Workload   string       `json:"workload"`
	Collectors []string     `json:"collectors"`

	// Stat collector: counted events, wall time, and IPC.
	Events         map[string]uint64 `json:"events,omitempty"`
	ElapsedSeconds float64           `json:"elapsed_seconds,omitempty"`
	IPC            float64           `json:"ipc,omitempty"`

	// Record collector: sampling metadata and the hotspot table.
	SampleCount    int       `json:"sample_count,omitempty"`
	LostSamples    uint64    `json:"lost_samples,omitempty"`
	SamplingLeader string    `json:"sampling_leader,omitempty"`
	Hotspots       []Hotspot `json:"hotspots,omitempty"`

	// Roofline collector.
	Roofline *RooflineResult `json:"roofline,omitempty"`

	// TopDown collector.
	TopDown *TopDownResult `json:"topdown,omitempty"`

	// CompileStats counts how many programs this run actually compiled
	// versus served from the session's program cache, making the
	// compile-once behaviour observable in -json output.
	CompileStats *CompileStats `json:"compile_stats,omitempty"`

	// Errors records per-collector failures. A collector that cannot
	// run on a platform (sampling on the U74) reports here instead of
	// aborting the session, so matrix sweeps always complete.
	Errors []CollectorError `json:"errors,omitempty"`

	// Recording is the raw sampling session, kept for renderers that
	// need more than the hotspot table (flame graphs). Not serialized.
	Recording *miniperf.Recording `json:"-"`
}

// PlatformInfo is the platform metadata embedded in every profile.
type PlatformInfo struct {
	Name        string  `json:"name"`
	Board       string  `json:"board"`
	TargetISA   string  `json:"target_isa"`
	CPUID       string  `json:"cpu_id"`
	OverflowIRQ string  `json:"overflow_irq"`
	PeakGFLOPS  float64 `json:"peak_gflops"`
}

func platformInfo(p *platform.Platform) PlatformInfo {
	return PlatformInfo{
		Name:        p.Name,
		Board:       p.Board,
		TargetISA:   p.TargetISA,
		CPUID:       p.ID.String(),
		OverflowIRQ: p.Caps.OverflowIRQ.String(),
		PeakGFLOPS:  p.TheoreticalPeakGFLOPS,
	}
}

// Hotspot is one row of the per-function hotspot table (Table 2).
type Hotspot struct {
	Function     string  `json:"function"`
	TotalPct     float64 `json:"total_pct"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
}

// RooflineResult is the serializable outcome of a two-phase roofline
// measurement against the platform's roofs.
type RooflineResult struct {
	PeakGFLOPS  float64         `json:"peak_gflops"`
	MemoryGiBps float64         `json:"memory_gibps"`
	RidgeAI     float64         `json:"ridge_ai"`
	Points      []RooflinePoint `json:"points"`

	// Hierarchical is the L1/L2/DRAM extension of the same measurement:
	// per-level bandwidth ceilings and per-level arithmetic-intensity
	// points. The fields above do not depend on it.
	Hierarchical *HierarchicalRoofline `json:"hierarchical,omitempty"`

	// Model is the full chart object for rendering. Not serialized.
	Model *roofline.Model `json:"-"`

	// HierModel is the three-ceiling chart object for rendering the
	// hierarchical view. Not serialized.
	HierModel *roofline.Model `json:"-"`
}

// RooflinePoint is one measured region placed on the model.
type RooflinePoint struct {
	Name       string  `json:"name"`
	AI         float64 `json:"ai"`
	GFLOPS     float64 `json:"gflops"`
	Source     string  `json:"source"`
	Bound      string  `json:"bound"`
	Efficiency float64 `json:"efficiency"`
}

// HierarchicalRoofline is the hierarchical (per-cache-level) roofline:
// one bandwidth ceiling per level of the memory hierarchy, and for
// every measured region one point per level, each with its own
// arithmetic intensity (FLOPs per byte moved at that level, Yang's
// hierarchical-roofline methodology).
type HierarchicalRoofline struct {
	Ceilings []HierarchicalCeiling `json:"ceilings"`
	Points   []HierarchicalPoint   `json:"points"`
}

// HierarchicalCeiling is one level's bandwidth roof.
type HierarchicalCeiling struct {
	Level   string  `json:"level"` // "L1", "L2", "DRAM"
	GiBps   float64 `json:"gibps"`
	RidgeAI float64 `json:"ridge_ai"` // where this roof meets the compute roof
}

// HierarchicalPoint is one measured region with per-level traffic.
type HierarchicalPoint struct {
	Name   string                  `json:"name"`
	GFLOPS float64                 `json:"gflops"`
	Levels []HierarchicalLevelStat `json:"levels"`
	// Bound names the ceiling with the highest utilization — the level
	// (or "compute") that limits this region hardest.
	Bound string `json:"bound"`
}

// HierarchicalLevelStat is one region's traffic through one level.
type HierarchicalLevelStat struct {
	Level string  `json:"level"`
	Bytes uint64  `json:"bytes"`
	AI    float64 `json:"ai"`    // FLOPs per byte moved at this level
	GiBps float64 `json:"gibps"` // achieved bandwidth at this level
}

// TopDownResult is the level-1 Top-Down slot breakdown.
type TopDownResult struct {
	Retiring       float64 `json:"retiring"`
	BadSpeculation float64 `json:"bad_speculation"`
	FrontendBound  float64 `json:"frontend_bound"`
	BackendBound   float64 `json:"backend_bound"`
	Dominant       string  `json:"dominant"`
	SlotsPerCycle  int     `json:"slots_per_cycle"`
}

// CollectorError is the typed per-collector failure carried by a
// Profile. Panic marks a contained panic (the collector crashed and
// the session recovered it into this entry; see PanicError), with
// Stack carrying the goroutine stack at recovery time. Both fields
// are empty for ordinary "cannot run here" failures, so profiles on
// the non-faulted path encode exactly as before.
type CollectorError struct {
	Collector string `json:"collector"`
	Message   string `json:"message"`
	Panic     bool   `json:"panic,omitempty"`
	Stack     string `json:"stack,omitempty"`
}

// Error implements the error interface.
func (e CollectorError) Error() string {
	return fmt.Sprintf("%s: %s", e.Collector, e.Message)
}

// Err folds the profile's collector failures into one error, or nil
// when every collector succeeded.
func (p *Profile) Err() error {
	if len(p.Errors) == 0 {
		return nil
	}
	msgs := make([]string, len(p.Errors))
	for i, e := range p.Errors {
		msgs[i] = e.Error()
	}
	return fmt.Errorf("mperf: %s", strings.Join(msgs, "; "))
}

// Failed reports whether the named collector recorded an error.
func (p *Profile) Failed(collector string) bool {
	for _, e := range p.Errors {
		if e.Collector == collector {
			return true
		}
	}
	return false
}
