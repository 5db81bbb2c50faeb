package mperf_test

import (
	"testing"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// hierLevels are the hierarchical roofline's levels, fastest first.
var hierLevels = []string{"L1", "L2", "DRAM"}

// TestHierarchicalRooflineInvariance is the acceptance check of the
// hierarchical roofline over the whole golden corpus: every corpus
// profile, on all four platforms, carries exactly the L1, L2 and DRAM
// ceilings with strictly decreasing bandwidth, and at least one
// measured point, each with traffic through all three levels in that
// order. The profile bytes, hierarchical section included, are pinned
// by TestSuperblockInvariance, so the traffic probe and per-level byte
// counters on the hot path are observation, never perturbation. The
// superblocks/<workload> subtests check the ceilings and the
// per-instruction/<workload> subtests the points; both names are kept
// test IDs from before the corpus pinned this section.
func TestHierarchicalRooflineInvariance(t *testing.T) {
	profiles := map[string]*mperf.HierarchicalRoofline{}
	hier := func(t *testing.T, plat, name string) *mperf.HierarchicalRoofline {
		t.Helper()
		key := plat + " " + name
		if h, ok := profiles[key]; ok {
			return h
		}
		prof, _ := corpusProfile(t, plat, name, mperf.NewProgramCache())
		if prof.Roofline == nil || prof.Roofline.Hierarchical == nil {
			t.Fatalf("%s/%s: no hierarchical roofline (errors: %v)", plat, name, prof.Errors)
		}
		profiles[key] = prof.Roofline.Hierarchical
		return profiles[key]
	}
	t.Run("superblocks", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				for _, plat := range corpusPlatforms {
					c := hier(t, plat, name).Ceilings
					if len(c) != len(hierLevels) {
						t.Fatalf("%s/%s: %d ceilings, want L1/L2/DRAM", plat, name, len(c))
					}
					for i, lv := range hierLevels {
						if c[i].Level != lv {
							t.Errorf("%s/%s: ceiling %d is %q, want %q", plat, name, i, c[i].Level, lv)
						}
						if i > 0 && c[i].GiBps >= c[i-1].GiBps {
							t.Errorf("%s/%s: ceilings not strictly decreasing: %s %.2f >= %s %.2f",
								plat, name, c[i].Level, c[i].GiBps, c[i-1].Level, c[i-1].GiBps)
						}
					}
				}
			})
		}
	})
	t.Run("per-instruction", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				for _, plat := range corpusPlatforms {
					pts := hier(t, plat, name).Points
					if len(pts) == 0 {
						t.Errorf("%s/%s: no hierarchical points", plat, name)
					}
					for _, pt := range pts {
						if len(pt.Levels) != len(hierLevels) {
							t.Errorf("%s/%s %s: %d levels, want L1/L2/DRAM", plat, name, pt.Name, len(pt.Levels))
							continue
						}
						for i, lv := range pt.Levels {
							if lv.Level != hierLevels[i] || lv.Bytes == 0 {
								t.Errorf("%s/%s %s: level %d is %+v, want %s with traffic",
									plat, name, pt.Name, i, lv, hierLevels[i])
							}
						}
					}
				}
			})
		}
	})
}

// memboundGolden pins each memory-bound suite member's profile shape:
// whether the kernel carries FLOPs, and what the collectors must say
// about it on the X60 at catalog sizing.
var memboundGolden = []struct {
	name  string
	flops bool // FLOP-bearing (stream_scale FMul, stream_add FAdd, spmv FMA)
}{
	{"stream_copy", false},
	{"stream_scale", true},
	{"stream_add", true},
	{"gather", false},
	{"scatter", false},
	{"spmv", true},
	{"ptrchase", false},
}

// TestMemboundGoldenProfiles checks what the suite's X60 corpus
// profiles (see TestSuperblockInvariance) must say: real memory
// traffic in the counters, Backend Bound dominance in the TMA
// classification (these are the suite's reason to exist), and
// per-level points obeying the conservation ordering. Their bytes, and
// so their determinism, are the corpus's to pin.
func TestMemboundGoldenProfiles(t *testing.T) {
	for _, g := range memboundGolden {
		t.Run(g.name, func(t *testing.T) {
			prof, _ := corpusProfile(t, "x60", g.name, mperf.NewProgramCache())
			if err := prof.Err(); err != nil {
				t.Fatalf("collector errors: %v", err)
			}

			// Stat: the kernel actually ran and missed the caches.
			if prof.Events["instructions"] == 0 || prof.IPC <= 0 {
				t.Errorf("stat empty: events=%v ipc=%v", prof.Events, prof.IPC)
			}
			if prof.Events["cache-misses"] == 0 {
				t.Error("a memory-bound kernel recorded zero cache misses")
			}

			// TopDown: the suite exists to give TMA genuinely
			// memory-bound cases — every member must classify Backend
			// Bound on the in-order X60.
			if prof.TopDown.Dominant != "Backend Bound" {
				t.Errorf("dominant = %q, want Backend Bound", prof.TopDown.Dominant)
			}

			// Roofline: one measured region per kernel, classified
			// memory-bound when it carries FLOPs.
			r := prof.Roofline
			if len(r.Points) == 0 {
				t.Fatal("no roofline regions measured")
			}
			for _, pt := range r.Points {
				if g.flops {
					if pt.GFLOPS <= 0 || pt.Bound != "memory-bound" {
						t.Errorf("FLOP-bearing kernel point %+v; want GFLOPS>0, memory-bound", pt)
					}
				} else if pt.GFLOPS != 0 {
					t.Errorf("zero-FLOP kernel reports %v GFLOP/s", pt.GFLOPS)
				}
			}

			// Hierarchical points (their L1/L2/DRAM shape is
			// TestHierarchicalRooflineInvariance's): DRAM never exceeding
			// the L1<->L2 bus, and the suite sized so DRAM is the binding
			// ceiling throughout.
			h := r.Hierarchical
			if h == nil || len(h.Points) == 0 {
				t.Fatal("no hierarchical points")
			}
			for _, pt := range h.Points {
				if len(pt.Levels) != 3 {
					t.Fatalf("levels malformed: %+v", pt.Levels)
				}
				l1, l2, dram := pt.Levels[0], pt.Levels[1], pt.Levels[2]
				if dram.Bytes > l2.Bytes {
					t.Errorf("DRAM bytes %d exceed L1<->L2 bus bytes %d", dram.Bytes, l2.Bytes)
				}
				// L1-vs-L2 bytes have no fixed order (writebacks can push
				// the bus above demand traffic), but DRAM ≤ L2 bytes means
				// AI at L2 never exceeds AI at DRAM.
				if g.flops && (l1.AI <= 0 || l2.AI > dram.AI) {
					t.Errorf("per-level AI malformed (want L1 > 0, L2 ≤ DRAM): %+v", pt.Levels)
				}
				if pt.Bound != "DRAM" {
					t.Errorf("bound = %q, want DRAM at catalog sizing", pt.Bound)
				}
			}
		})
	}
}
