// Command mpc is the mini compiler driver: it parses a textual IR
// module, runs the optimization and instrumentation pipeline, and
// prints the result — the equivalent of invoking clang with the
// paper's plugin and inspecting the transformed IR.
//
// Usage:
//
//	mpc [-profile none|conservative|aggressive] [-lanes 8]
//	    [-interleave] [-no-lsr] [-instrument] [-verify-only] [file.mir]
//
// Without a file argument the module is read from stdin. The module
// inside a program artifact (vm.EncodeArtifact) is this same text.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mperf/internal/ir"
	"mperf/internal/passes"
)

func main() {
	profileName := flag.String("profile", "none", "vectorizer profile: none, conservative, aggressive")
	lanes := flag.Int("lanes", 8, "vector width in f32 lanes")
	interleave := flag.Bool("interleave", false, "interleave scalar FP reductions")
	noLSR := flag.Bool("no-lsr", false, "disable strength reduction, DCE and scheduling")
	instrument := flag.Bool("instrument", false, "apply the Roofline instrumentation pass")
	verifyOnly := flag.Bool("verify-only", false, "parse and verify, print nothing on success")
	flag.Parse()

	var src []byte
	var err error
	if flag.NArg() > 0 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpc: %v\n", err)
		os.Exit(1)
	}

	mod, err := ir.Parse(string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpc: parse: %v\n", err)
		os.Exit(1)
	}
	if err := ir.Verify(mod); err != nil {
		fmt.Fprintf(os.Stderr, "mpc: verify: %v\n", err)
		os.Exit(1)
	}
	if *verifyOnly {
		return
	}

	profile, err := passes.ProfileByName(*profileName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpc: %v\n", err)
		os.Exit(1)
	}
	res, err := passes.RunPipeline(mod, passes.PipelineOptions{
		Profile:          profile,
		Lanes:            *lanes,
		Interleave:       *interleave,
		NoStrengthReduce: *noLSR,
		Instrument:       *instrument,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpc: pipeline: %v\n", err)
		os.Exit(1)
	}
	for fn, headers := range res.VectorizedLoops {
		fmt.Fprintf(os.Stderr, "mpc: vectorized %v in @%s\n", headers, fn)
	}
	for fn, n := range res.InterleavedLoops {
		fmt.Fprintf(os.Stderr, "mpc: interleaved %d reduction(s) in @%s\n", n, fn)
	}
	for fn, n := range res.StrengthReduced {
		fmt.Fprintf(os.Stderr, "mpc: strength-reduced %d access(es) in @%s\n", n, fn)
	}
	if len(res.Instrumented) > 0 {
		fmt.Fprintf(os.Stderr, "mpc: instrumented %d loop region(s)\n", len(res.Instrumented))
	}
	fmt.Print(ir.Print(mod))
}
