// Command miniperf is the CLI front end of the reproduced tool: it
// resolves one of the registered workloads and platforms through the
// mperf registries and runs the profiling verbs from the paper.
//
// Verbs:
//
//	miniperf platforms
//	    List the registered platforms, their CPU IDs and capabilities.
//	miniperf workloads
//	    List the registered workloads.
//	miniperf stat     -platform x60 -workload sqlite [-events cycles,instructions]
//	    Count events around the workload (works on every platform).
//	miniperf record   -platform x60 -workload sqlite [-freq 4000] [-flame out.svg]
//	    Sample the workload, print hotspots, optionally render a flame
//	    graph. On the X60 this exercises the grouping workaround; on
//	    the U74 it fails with the same error the real tool reports.
//	miniperf roofline -platform x60 [-workload matmul] [-n 128] [-tile 32]
//	    Compile the workload (default matmul) with the platform's
//	    vectorizer profile, run the two-phase analysis and print the
//	    model.
//	miniperf topdown  -platform x60 -workload sqlite
//	    Level-1 Top-Down analysis (the paper's §6 extension).
//	miniperf profile  -platform x60 -workload sqlite [-collectors stat,record,topdown]
//	    Run several collectors over one workload and emit the combined
//	    profile as JSON.
//	miniperf matrix   [-platforms all] [-workloads all] [-collectors stat]
//	    Sweep platforms × workloads × collectors in parallel. With
//	    -sweep-dir the sweep instead materializes one JSON file per
//	    cell into that directory; -shard i/n runs only the i-th of n
//	    deterministic cell slices (each shard may be a separate
//	    process or host sharing the directory) and -resume skips
//	    cells already materialized, so an interrupted sweep finishes
//	    where it left off.
//	miniperf matrix-merge -sweep-dir DIR
//	    Merge a completed sweep directory into the single report
//	    RunMatrix would have produced, byte-stable across shardings.
//
// Every verb accepts -json to emit the machine-readable Profile
// instead of the rendered text, and -cpuprofile/-memprofile to profile
// the profiler itself with pprof. -cache-dir (or MPERF_CACHE_DIR)
// attaches a persistent artifact store to the program cache: compiled
// programs are serialized to disk and later invocations — including
// other processes and sweep shards — load them back instead of
// compiling.
//
// # Daemon use
//
// When an mperfd daemon is reachable (MPERFD_ADDR, or the default
// local address), the stat, topdown, profile and matrix verbs become
// thin clients: the request runs on the daemon's warm program cache
// and the served profile — bit-identical to the in-process result —
// is rendered locally. -daemon off forces in-process execution;
// -daemon HOST:PORT targets a specific daemon. The record and
// roofline verbs always run in-process because their text renderings
// need the raw recording and model objects, which do not travel over
// the wire.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"mperf/internal/miniperf"
	"mperf/internal/platform"
	"mperf/internal/report"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
	"mperf/pkg/mperfd/client"
)

// stopProfiles finalizes any active pprof outputs; it must run on
// every exit path (including fail) so the profile files are valid.
var stopProfiles = func() {}

func fail(err error) {
	stopProfiles()
	fmt.Fprintf(os.Stderr, "miniperf: %v\n", err)
	os.Exit(1)
}

// startProfiles turns on the requested pprof collectors and arranges
// for them to be flushed by stopProfiles.
func startProfiles(cpuProfile, memProfile string) {
	stopCPU, stopMem := func() {}, func() {}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if memProfile != "" {
		stopMem = func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "miniperf: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "miniperf: %v\n", err)
			}
		}
	}
	stopProfiles = func() {
		stopCPU()
		stopMem()
		stopProfiles = func() {}
	}
}

// emitJSON shares pkg/mperf's encoder path with the daemon, so a
// served profile and an in-process one print byte-identically.
func emitJSON(v any) {
	if err := mperf.WriteJSON(os.Stdout, v); err != nil {
		fail(err)
	}
}

// parseShard parses the -shard flag: "" means the single shard 0/1,
// otherwise "i/n" with 0 <= i < n.
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &index, &count); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n, e.g. 0/2)", s)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q: index must be in [0, n)", s)
	}
	return index, count, nil
}

// matrixTable renders sweep cells as the matrix verbs' shared table.
func matrixTable(cells []mperf.MatrixCell) string {
	t := report.NewTable("Matrix sweep", "Platform", "Workload", "IPC", "Samples", "Status")
	for _, cell := range cells {
		ipc, samples, status := "-", "-", "ok"
		switch {
		case cell.Error != "":
			status = cell.Error
		case cell.Profile != nil:
			ipc = fmt.Sprintf("%.2f", cell.Profile.IPC)
			samples = report.Grouped(uint64(cell.Profile.SampleCount))
			if err := cell.Profile.Err(); err != nil {
				status = err.Error()
			}
		}
		t.AddRowCells(cell.Platform, cell.Workload, ipc, samples, status)
	}
	return t.String()
}

func splitList(s string) []string {
	if s == "" || s == "all" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: miniperf <platforms|workloads|stat|record|roofline|topdown|profile|matrix|matrix-merge> [flags]")
		os.Exit(2)
	}
	verb := os.Args[1]
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	platName := fs.String("platform", "x60", "target platform: "+strings.Join(platform.Names(), ", "))
	workload := fs.String("workload", "sqlite", "workload: "+strings.Join(workloads.Names(), ", "))
	events := fs.String("events", "", "stat: comma-separated event names (default: the perf stat set)")
	freq := fs.Uint64("freq", 4000, "record: sample frequency in Hz")
	flame := fs.String("flame", "", "record: write a cycles flame graph SVG here")
	n := fs.Int("n", 128, "matmul dimension")
	tile := fs.Int("tile", 32, "matmul tile")
	elems := fs.Int("elems", 0, "element count for the array kernels but memset (0 = default; dot, triad and stream_* need a multiple of 16)")
	collectors := fs.String("collectors", "stat,record,topdown", "profile/matrix: comma-separated collector names, or all")
	platforms := fs.String("platforms", "all", "matrix: comma-separated platforms, or all")
	workloadList := fs.String("workloads", "all", "matrix: comma-separated workloads, or all")
	parallel := fs.Int("parallel", 0, "matrix: worker pool size (0 = GOMAXPROCS)")
	sweepDir := fs.String("sweep-dir", "", "matrix/matrix-merge: materialize per-cell JSON into this directory")
	shard := fs.String("shard", "", "matrix: run only shard i of n, as i/n (requires -sweep-dir)")
	resume := fs.Bool("resume", false, "matrix: skip cells already materialized in -sweep-dir")
	cacheDir := fs.String("cache-dir", "", "persistent program artifact directory (default: $"+mperf.CacheDirEnv+")")
	daemonMode := fs.String("daemon", "auto", "mperfd use: auto (use a daemon when one is up), off, or an explicit host:port")
	requestTimeout := fs.Duration("request-timeout", 0, "daemon-side deadline for served requests (0 = daemon default)")
	asJSON := fs.Bool("json", false, "emit the profile as JSON instead of rendered text")
	vmStats := fs.Bool("vm-stats", false, "print VM execution coverage (steps, kernel hits) to stderr")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of miniperf itself here")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile of miniperf itself here")
	fs.Parse(os.Args[2:])
	startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()
	workloadSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "workload" {
			workloadSet = true
		}
	})
	// The roofline verb profiles a compute kernel; the shared sqlite
	// default would yield a degenerate model, so it defaults to the
	// paper's matmul unless -workload is given explicitly.
	if verb == "roofline" && !workloadSet {
		*workload = "matmul"
	}
	collectorNames := splitList(*collectors)
	if collectorNames == nil {
		collectorNames = mperf.CollectorNames()
	}

	if *cacheDir != "" {
		// Attaches the artifact store to the default program cache (the
		// one every session here compiles through); without the flag the
		// cache honors MPERF_CACHE_DIR on its own.
		if err := mperf.DefaultProgramCache().SetArtifactDir(*cacheDir); err != nil {
			fail(err)
		}
	}
	// cfg is the run's one configuration: the in-process session and
	// every daemon request carry the same value.
	cfg := mperf.Config{
		Events:       splitList(*events),
		SampleFreqHz: *freq,
		MatmulN:      *n,
		MatmulTile:   *tile,
		Elems:        *elems,
	}
	opts := []mperf.Option{mperf.WithConfig(cfg)}
	// -vm-stats: diagnostic coverage counters, printed to stderr on
	// exit and deliberately kept out of Profile output (profiles do not
	// depend on cache state or kernel matching). Only in-process
	// execution feeds the accumulator; daemon-served requests run in
	// the daemon's VMs.
	var execStats mperf.ExecStats
	if *vmStats {
		opts = append(opts, mperf.WithExecStats(&execStats))
		defer func() {
			fmt.Fprintf(os.Stderr,
				"miniperf: vm-stats: %d steps, %d kernel activations, %d kernel iterations\n",
				execStats.TotalSteps.Load(), execStats.KernelHits.Load(), execStats.KernelIters.Load())
		}()
	}

	// daemon resolves the mperfd client to use, or nil for in-process
	// execution. "auto" probes quietly; an explicit address must work.
	daemon := func() *client.Client {
		switch *daemonMode {
		case "", "auto":
			return client.DetectContext(context.Background())
		case "off":
			return nil
		default:
			c := client.New(*daemonMode)
			if err := c.Ping(context.Background()); err != nil {
				fail(fmt.Errorf("daemon %s unreachable: %w", *daemonMode, err))
			}
			return c
		}
	}

	// profileRequest renders the shared flags as a daemon request.
	profileRequest := func(collectors []string) mperfd.ProfileRequest {
		return mperfd.ProfileRequest{
			Platform:   *platName,
			Workload:   *workload,
			Collectors: collectors,
			TimeoutMS:  requestTimeout.Milliseconds(),
			Sizing:     cfg,
		}
	}

	// fallbackNotice tells the user why a request that started on the
	// daemon finished in-process. The daemon path is best-effort: any
	// daemon failure — overload past the client's retry budget, a
	// missed deadline, a connection that died mid-stream — degrades to
	// local execution of the identical request.
	fallbackNotice := func(cause error) {
		fmt.Fprintf(os.Stderr, "miniperf: daemon failed (%v), running in-process\n", cause)
	}

	// runProfile is the daemon-first execution path shared by the
	// profile-shaped verbs: serve from a detected daemon with retries,
	// fall back to in-process execution when the daemon cannot.
	runProfile := func(c *client.Client, collectors []string) *mperf.Profile {
		prof, _, err := client.ProfileWithFallback(context.Background(), c, profileRequest(collectors), nil,
			fallbackNotice, func() (*mperf.Profile, error) {
				sess, err := mperf.Open(*platName, *workload, opts...)
				if err != nil {
					return nil, err
				}
				cs, err := mperf.Collectors(collectors...)
				if err != nil {
					return nil, err
				}
				return sess.Run(cs...)
			})
		if err != nil {
			fail(err)
		}
		return prof
	}

	// runOne opens a session and runs one collector, failing the
	// process on any error — the single-verb verbs share it. For the
	// collectors whose rendering needs only serialized profile fields
	// it transparently uses a running daemon, falling back in-process.
	runOne := func(collector string) (*mperf.Session, *mperf.Profile) {
		sess, err := mperf.Open(*platName, *workload, opts...)
		if err != nil {
			fail(err)
		}
		var c *client.Client
		if collector == "stat" || collector == "topdown" {
			c = daemon()
		}
		prof, _, err := client.ProfileWithFallback(context.Background(), c, profileRequest([]string{collector}), nil,
			fallbackNotice, func() (*mperf.Profile, error) {
				cs, err := mperf.Collectors(collector)
				if err != nil {
					return nil, err
				}
				return sess.Run(cs...)
			})
		if err != nil {
			fail(err)
		}
		if err := prof.Err(); err != nil {
			fail(err)
		}
		return sess, prof
	}

	switch verb {
	case "platforms":
		t := report.NewTable("Registered platforms",
			"Name", "Board", "ISA", "CPU ID", "Overflow IRQ", "Upstream Linux")
		for _, name := range platform.Names() {
			p, err := platform.Lookup(name)
			if err != nil {
				fail(err)
			}
			t.AddRowCells(p.Name, p.Board, p.TargetISA, p.ID.String(),
				p.Caps.OverflowIRQ.String(), p.Caps.UpstreamLinux)
		}
		fmt.Println(t.String())

	case "workloads":
		t := report.NewTable("Registered workloads", "Name", "Entry", "Description")
		for _, name := range workloads.Names() {
			spec, err := workloads.Lookup(name, workloads.Params{})
			if err != nil {
				fail(err)
			}
			t.AddRowCells(spec.Name, "@"+spec.Entry, spec.Description)
		}
		fmt.Println(t.String())

	case "stat":
		sess, prof := runOne("stat")
		if *asJSON {
			emitJSON(prof)
			return
		}
		fmt.Printf("Performance counter stats for %q on %s:\n\n", *workload, prof.Platform.Name)
		for _, label := range sess.StatLabels() {
			fmt.Printf("  %18s  %s\n", report.Grouped(prof.Events[label]), label)
		}
		fmt.Printf("\n  %.6f seconds (simulated)\n  %.2f insn per cycle\n",
			prof.ElapsedSeconds, prof.IPC)

	case "record":
		_, prof := runOne("record")
		if *asJSON {
			emitJSON(prof)
			return
		}
		fmt.Printf("Sampled %d stacks on %s (leader: %s, lost: %d)\n\n",
			prof.SampleCount, prof.Platform.Name, prof.SamplingLeader, prof.LostSamples)
		t := report.NewTable("Hotspots", "Function", "Total %", "Cycles", "Instructions", "IPC")
		for _, h := range prof.Hotspots {
			t.AddRowCells(h.Function, fmt.Sprintf("%.2f%%", h.TotalPct),
				report.Grouped(h.Cycles), report.Grouped(h.Instructions),
				fmt.Sprintf("%.2f", h.IPC))
		}
		fmt.Println(t.String())
		g := prof.Recording.FlameGraph(*workload+" on "+prof.Platform.Name, miniperf.MetricCycles)
		fmt.Println(g.ASCII(100))
		if *flame != "" {
			if err := os.WriteFile(*flame, []byte(g.SVG(1000)), 0o644); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *flame)
		}

	case "roofline":
		_, prof := runOne("roofline")
		if *asJSON {
			emitJSON(prof)
			return
		}
		fmt.Println(prof.Roofline.Model.Summary())
		fmt.Println(prof.Roofline.Model.ASCIIPlot(100, 20))
		h := prof.Roofline.Hierarchical
		fmt.Println(prof.Roofline.HierModel.Summary())
		fmt.Println(prof.Roofline.HierModel.ASCIIPlot(100, 20))
		t := report.NewTable("Per-level traffic",
			"Region", "Level", "Bytes", "AI", "GiB/s", "Bound")
		for _, pt := range h.Points {
			for _, lv := range pt.Levels {
				bound := ""
				if lv.Level == pt.Bound {
					bound = "◀ bound"
				} else if pt.Bound == "compute" && lv.Level == "L1" {
					bound = "(compute-bound)"
				}
				t.AddRowCells(pt.Name, lv.Level, report.Grouped(lv.Bytes),
					fmt.Sprintf("%.4f", lv.AI), fmt.Sprintf("%.3f", lv.GiBps), bound)
			}
		}
		fmt.Println(t.String())

	case "topdown":
		_, prof := runOne("topdown")
		if *asJSON {
			emitJSON(prof)
			return
		}
		td := prof.TopDown
		fmt.Printf("Top-Down analysis of %q on %s\n\n", *workload, prof.Platform.Name)
		fmt.Printf("Top-Down level 1 (%d slots/cycle):\n", td.SlotsPerCycle)
		fmt.Printf("  Retiring         %5.1f%%\n", 100*td.Retiring)
		fmt.Printf("  Bad Speculation  %5.1f%%\n", 100*td.BadSpeculation)
		fmt.Printf("  Frontend Bound   %5.1f%%\n", 100*td.FrontendBound)
		fmt.Printf("  Backend Bound    %5.1f%%\n", 100*td.BackendBound)
		fmt.Printf("  → dominant: %s\n", td.Dominant)

	case "profile":
		prof := runProfile(daemon(), collectorNames)
		emitJSON(prof) // the profile verb is JSON by design
		if err := prof.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "miniperf: partial profile: %v\n", err)
		}

	case "matrix":
		spec := mperf.MatrixSpec{
			Platforms:   splitList(*platforms),
			Workloads:   splitList(*workloadList),
			Collectors:  collectorNames,
			Options:     opts,
			Parallelism: *parallel,
		}
		if *sweepDir != "" {
			shardIdx, shardCnt, err := parseShard(*shard)
			if err != nil {
				fail(err)
			}
			// Sharded sweeps always run in-process: the point is to pin
			// this process to a deterministic slice of cells, not to
			// fan out through a daemon's queue. SIGINT stops between
			// cells, leaving finished cells for a -resume run.
			ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stopSignals()
			rep, err := mperf.RunSweep(ctx, spec, mperf.SweepConfig{
				Dir: *sweepDir, ShardIndex: shardIdx, ShardCount: shardCnt, Resume: *resume,
			})
			if err != nil {
				if rep != nil && rep.Ran > 0 {
					fmt.Fprintf(os.Stderr, "miniperf: sweep interrupted with %d cells materialized; rerun with -resume\n", rep.Ran)
				}
				fail(err)
			}
			if *asJSON {
				emitJSON(rep)
				return
			}
			fmt.Printf("sweep %s: %d cells total, shard ran %d, resumed %d\n",
				rep.Dir, rep.Total, rep.Ran, rep.Resumed)
			fmt.Printf("programs: %s\n", mperf.DefaultProgramCache().Stats())
			return
		}
		if *shard != "" || *resume {
			fail(fmt.Errorf("-shard and -resume require -sweep-dir"))
		}
		var cells []mperf.MatrixCell
		var cacheStats mperf.CacheStats
		served := false
		if c := daemon(); c != nil {
			res, err := c.Matrix(context.Background(), mperfd.MatrixRequest{
				Platforms:   spec.Platforms,
				Workloads:   spec.Workloads,
				Collectors:  spec.Collectors,
				Parallelism: spec.Parallelism,
				TimeoutMS:   requestTimeout.Milliseconds(),
				Sizing:      cfg,
			})
			if err != nil {
				// The daemon path is best-effort: a dead or overloaded
				// daemon degrades to the identical in-process sweep.
				fallbackNotice(err)
			} else {
				if *asJSON {
					emitJSON(res)
					return
				}
				cells, cacheStats = res.Cells, res.Cache
				served = true
			}
		}
		if !served {
			res, err := mperf.RunMatrix(spec)
			if err != nil {
				fail(err)
			}
			if *asJSON {
				emitJSON(res)
				return
			}
			// One source of truth for the summary line: the cache's own
			// counters, the same numbers /v1/stats serves.
			cells, cacheStats = res.Cells, mperf.DefaultProgramCache().Stats()
		}
		fmt.Println(matrixTable(cells))
		fmt.Printf("programs: %s (hit rate %.0f%%)\n", cacheStats, 100*cacheStats.HitRate())

	case "matrix-merge":
		if *sweepDir == "" {
			fail(fmt.Errorf("matrix-merge requires -sweep-dir"))
		}
		res, err := mperf.MergeSweep(*sweepDir)
		if err != nil {
			fail(err)
		}
		if *asJSON {
			emitJSON(res)
			return
		}
		fmt.Println(matrixTable(res.Cells))

	default:
		stopProfiles()
		fmt.Fprintf(os.Stderr, "miniperf: unknown verb %q\n", verb)
		os.Exit(2)
	}
}
