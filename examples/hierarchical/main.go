// hierarchical walks the memory-bound kernel suite (stream triad
// siblings, gather/scatter, CSR SpMV, pointer chasing) through the
// hierarchical roofline: every region gets one arithmetic-intensity
// point per cache level (FLOPs over the bytes that level actually
// moved), placed against per-level bandwidth ceilings, so a kernel
// that looks merely "memory-bound" on the classic single-ceiling
// chart resolves into L1-, L2- or DRAM-bound.
package main

import (
	"fmt"
	"log"

	"mperf/pkg/mperf"
)

func main() {
	suite := []string{
		"stream_copy", "stream_scale", "stream_add",
		"gather", "scatter", "spmv", "ptrchase",
	}
	for _, w := range suite {
		sess, err := mperf.Open("x60", w, mperf.WithElems(4096))
		if err != nil {
			log.Fatal(err)
		}
		prof, err := sess.Run(mperf.MustCollectors("roofline")...)
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.Err(); err != nil {
			log.Fatal(err)
		}
		h := prof.Roofline.Hierarchical
		fmt.Printf("%-13s", w)
		for _, pt := range h.Points {
			for _, lv := range pt.Levels {
				fmt.Printf("  %s %8.3f GiB/s", lv.Level, lv.GiBps)
			}
			fmt.Printf("  -> %s-bound\n", pt.Bound)
			break // the suite kernels are single-region
		}
	}

	// The ceilings themselves are per-platform model parameters; print
	// the X60's for reference (monotone by construction: L1 ≥ L2 ≥ DRAM).
	sess, err := mperf.Open("x60", "stream_add", mperf.WithElems(4096))
	if err != nil {
		log.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors("roofline")...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for _, c := range prof.Roofline.Hierarchical.Ceilings {
		fmt.Printf("  %-5s ceiling %7.2f GiB/s   ridge %.3f FLOP/byte\n",
			c.Level, c.GiBps, c.RidgeAI)
	}
}
