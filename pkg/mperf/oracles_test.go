package mperf_test

import (
	"testing"

	"mperf/internal/ir"
	"mperf/internal/machine"
	"mperf/internal/passes"
	"mperf/internal/platform"
	"mperf/internal/roofline"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
)

// oraclePlatforms are the four catalog platforms the analytic oracles
// hold on.
var oraclePlatforms = []string{"x60", "c910", "u74", "i5"}

// runStats runs the session's workload once on a fresh machine of the
// raw or the optimized (uninstrumented) build and returns the core's
// statistics for that run.
func runStats(t *testing.T, sess *mperf.Session, optimized bool) machine.Stats {
	t.Helper()
	newMachine := sess.NewMachine
	if optimized {
		newMachine = func() (*vm.Machine, error) { return sess.NewOptimizedMachine(false) }
	}
	m, err := newMachine()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if err := sess.Workload().Run(m); err != nil {
		t.Fatal(err)
	}
	return m.Hart().Core.Stats()
}

// interleavedMatmulLoops runs the platform's optimization pipeline on a
// fresh matmul module and reports how many loops of the kernel the
// reduction interleaver split into partial sums.
func interleavedMatmulLoops(t *testing.T, plat *platform.Platform, n, tile int) int {
	t.Helper()
	mod := ir.NewModule("matmul")
	if _, err := workloads.BuildMatmul(mod, n, tile); err != nil {
		t.Fatal(err)
	}
	profile, err := passes.ProfileByName(plat.VectorizerProfile)
	if err != nil {
		t.Fatal(err)
	}
	res, err := passes.RunPipeline(mod, passes.PipelineOptions{
		Profile: profile, Lanes: plat.Core.VectorLanes32, Interleave: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.InterleavedLoops["matmul"]
}

// TestAnalyticOracles checks counts that every execution path shares
// against closed forms, so a model bug common to all paths cannot hide
// behind their agreement:
//
//   - The raw matmul retires exactly 2n³ FLOPs: one FMA (2 FLOPs) per
//     (i, j, k).
//   - The optimized matmul retires 2n³ + 3n²·(n/tile) FLOPs where the
//     reduction interleaver split the k loop, and exactly 2n³ where it
//     did not (i5, whose vectorizer takes the j loop instead). The k
//     loop runs once per (i, j) and k block, n²·(n/tile) times. Split
//     into four partial sums, each run ends by adding the four back
//     together, three FP adds that the raw build does not execute:
//     548,864 FLOPs at 64/32, 573,440 at 64/16, 1,852,416 at 96/32.
//   - The roofline's instrumented FP count (phase 2, from the IR)
//     equals the core's retired FLOPs in the timed phase 1 (at 64/32).
//   - STREAM-style kernels demand exactly their element traffic of L1:
//     4 B per f32 read or written, so 8N bytes for copy and scale, 12N
//     for add and triad, and 8 B per memset word.
func TestAnalyticOracles(t *testing.T) {
	sizes := []struct {
		n, tile     int
		interleaved uint64 // FLOPs of the optimized build with the k loop split
	}{{64, 32, 548_864}, {64, 16, 573_440}, {96, 32, 1_852_416}}
	for _, name := range oraclePlatforms {
		plat, err := platform.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, sz := range sizes {
				n, tile := uint64(sz.n), uint64(sz.tile)
				sess, err := mperf.Open(name, "matmul",
					mperf.WithProgramCache(mperf.NewProgramCache()), mperf.WithMatmulSize(sz.n, sz.tile))
				if err != nil {
					t.Fatal(err)
				}
				raw := 2 * n * n * n
				if got := runStats(t, sess, false).Flops; got != raw {
					t.Errorf("matmul %d/%d raw: %d FLOPs, want 2n³ = %d", n, tile, got, raw)
				}

				interleaved := interleavedMatmulLoops(t, plat, sz.n, sz.tile)
				wantInterleaved := 1
				if name == "i5" {
					wantInterleaved = 0
				}
				if interleaved != wantInterleaved {
					t.Errorf("matmul %d/%d: %d interleaved loops, want %d", n, tile, interleaved, wantInterleaved)
				}
				opt := raw + uint64(interleaved)*3*n*n*(n/tile)
				if interleaved == 1 && opt != sz.interleaved {
					t.Errorf("matmul %d/%d: formula gives %d FLOPs, want %d", n, tile, opt, sz.interleaved)
				}
				if got := runStats(t, sess, true).Flops; got != opt {
					t.Errorf("matmul %d/%d optimized: %d FLOPs, want %d", n, tile, got, opt)
				}
				if sz != sizes[0] {
					continue // one size suffices for the two-derivations check
				}

				m, err := sess.NewOptimizedMachine(true)
				if err != nil {
					t.Fatal(err)
				}
				args, err := sess.Workload().Args(m)
				if err != nil {
					t.Fatal(err)
				}
				res, err := roofline.RunTwoPhase(m, sess.Workload().Entry, args)
				if err != nil {
					t.Fatal(err)
				}
				var fpOps uint64
				for _, l := range res.Loops {
					fpOps += l.Counts.FPOps
				}
				if core := m.Hart().Core.Stats().Flops; fpOps != core || core != opt {
					t.Errorf("matmul %d/%d roofline: instrumented %d FP ops, phase 1 core %d FLOPs, want both %d",
						n, tile, fpOps, core, opt)
				}
				m.Release()
			}

			const elems = 4096
			for _, k := range []struct {
				workload string
				bytes    uint64
			}{
				{"stream_copy", 8 * elems},
				{"stream_scale", 8 * elems},
				{"stream_add", 12 * elems},
				{"triad", 12 * elems},
				{"memset", 8 * elems},
			} {
				sess, err := mperf.Open(name, k.workload, mperf.WithProgramCache(mperf.NewProgramCache()),
					mperf.WithElems(elems), mperf.WithMemsetWords(elems))
				if err != nil {
					t.Fatal(err)
				}
				for _, optimized := range []bool{false, true} {
					if got := runStats(t, sess, optimized).L1DBytes; got != k.bytes {
						t.Errorf("%s (optimized=%v): %d L1 demand bytes, want %d", k.workload, optimized, got, k.bytes)
					}
				}
			}
		})
	}
}
