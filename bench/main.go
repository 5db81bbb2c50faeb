// Command bench is the repository's benchmark: four workloads that
// drive the profiling stack the way its users do, each measured end to
// end, plus a traced run that breaks one op down by layer.
//
//	bash bench/run.sh                          # every workload once, each in its own process
//	bash bench/run.sh -runs 3 -o base.json     # a run set: medians and quartiles per metric
//	bash bench/run.sh -trace 1                 # traced run: spans, CPU profile, per-layer table
//	bash bench/run.sh -workload daemon-serve -seed 7 -seconds 20 -trace 0
//	bash bench/run.sh -compare base.json -against new.json
//
// With -workload the named workload runs in this process and the last
// line of standard output is a JSON object with keys correct,
// attempted, failed and metrics. See README.md for the metric glossary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// One run times at least minSetupRepeats cold set-ups, and more until
// setupBudget is spent, so that a set-up of a few milliseconds still
// yields a steady median; setup_s is that median.
const (
	minSetupRepeats = 5
	maxSetupRepeats = 200
	setupBudget     = time.Second
)

// warmup is how long the loop runs untimed before measuring, so the
// heap, the machine pools and the host's caches reach their steady state.
const warmup = 2 * time.Second

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	outDir  string
}

// result is one run of one workload, as written to the result file.
type result struct {
	Workload         string             `json:"workload"`
	Seed             int64              `json:"seed"`
	Seconds          float64            `json:"seconds"`
	Trace            bool               `json:"trace"`
	Correct          bool               `json:"correct"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	Metrics          map[string]float64 `json:"metrics"`
	Failures         []string           `json:"failures,omitempty"`
	GoldenMismatches []string           `json:"golden_mismatches,omitempty"`
	Pins             []string           `json:"pins,omitempty"`
	SpanSelfMS       map[string]float64 `json:"span_self_ms,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "run only this workload, in this process (default: all, one child process each)")
	seed := flag.Int64("seed", 1, "seed for op order and arrival times")
	seconds := flag.Float64("seconds", 20, "measured seconds per workload (a traced run replays a third)")
	trace := flag.Int("trace", 0, "1: traced run producing the per-layer metrics")
	runs := flag.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1 (without -workload)")
	quick := flag.Bool("quick", false, "one round per workload on a reduced catalog (smoke test)")
	out := flag.String("o", "", "result file (default under .bench_build/out)")
	compare := flag.String("compare", "", "comma-separated base result files to compare against")
	against := flag.String("against", "", "comma-separated result files of the change (default: run now)")
	updateGolden := flag.Bool("update-golden", false, "recompute golden.json from the current code")
	flag.Parse()

	outDir := filepath.Join(".bench_build", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, outDir: outDir}

	switch {
	case *updateGolden:
		path := "golden.json"
		if _, err := os.Stat(filepath.Join("bench", "golden.json")); err == nil {
			path = filepath.Join("bench", "golden.json")
		}
		if err := writeGolden(path); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	case *workload != "":
		def, err := workloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(def, cfg)
		if err != nil {
			fatal(err)
		}
		path := *out
		if path == "" {
			path = filepath.Join(outDir, resultName(res))
		}
		if err := writeJSONFile(path, res); err != nil {
			fatal(err)
		}
		printResult(res)
		if err := printResultLine(res); err != nil {
			fatal(err)
		}
	default:
		var base []result
		if *compare != "" {
			var err error
			if base, err = loadResults(*compare); err != nil {
				fatal(err)
			}
		}
		var set []result
		if *against != "" {
			var err error
			if set, err = loadResults(*against); err != nil {
				fatal(err)
			}
		} else {
			var err error
			if set, err = runAll(cfg, *runs); err != nil {
				fatal(err)
			}
			path := *out
			if path == "" {
				path = filepath.Join(outDir, "runset.json")
			}
			if err := writeJSONFile(path, runSet{Runs: set}); err != nil {
				fatal(err)
			}
			fmt.Println("wrote", path)
		}
		printSummary(set)
		if base != nil {
			worse, err := printComparison(base, set)
			if err != nil {
				fatal(err)
			}
			if worse {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func resultName(r *result) string {
	kind := "run"
	if r.Trace {
		kind = "trace"
	}
	return fmt.Sprintf("%s-%s-seed%d.json", kind, r.Workload, r.Seed)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload performs one run of one workload in this process: the
// in-process references, the timed cold set-ups, an untimed warm-up,
// then either the measured loop or the traced run.
func runWorkload(def workloadDef, cfg runConfig) (*result, error) {
	workDir, err := os.MkdirTemp(cfg.outDir, "work-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	keys := def.catalog(cfg.quick)
	refs, err := computeReferences(keys)
	if err != nil {
		return nil, err
	}
	mismatches, err := goldenMismatches(def.name, keys, refs)
	if err != nil {
		return nil, err
	}
	e := &env{name: def.name, seed: cfg.seed, quick: cfg.quick, workDir: workDir, keys: keys, refs: refs}
	w := def.new(e)
	defer w.teardown()

	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetupRepeats && (i < minSetupRepeats || spent < setupBudget); i++ {
		if cfg.quick && i == 1 {
			break
		}
		// Each set-up starts from a collected heap, so one repeat's
		// garbage does not bill the next.
		runtime.GC()
		start := time.Now()
		d, err := w.setup()
		spent += time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", def.name, err)
		}
		setups = append(setups, d.Seconds())
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.quick {
		d = 0
	} else if err := w.loop(warmup, &loopStats{}); err != nil {
		return nil, err
	}
	res := &result{Workload: def.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoldenMismatches: mismatches}
	st := &loopStats{}
	if cfg.trace {
		startClean()
		if err := tracedRun(e, w, d/3, st, res, cfg); err != nil {
			return nil, err
		}
	} else {
		ref := hostRef()
		startClean()
		stopRSS := sampleRSS()
		err := w.loop(d, st)
		rss := stopRSS()
		if err != nil {
			return nil, err
		}
		res.Metrics = endToEndMetrics(st, setups, rss, refs)
		res.Metrics["host_ref_ms"] = median(append(ref, hostRef()...))
	}
	res.Attempted, res.Failed, res.Failures = st.attempted, st.failed, st.failures
	res.Correct = st.failed == 0 && st.attempted > 0
	return res, nil
}

// hostRefBuf is the working set of hostRef: larger than the simulated
// platforms' L2 and most hosts' per-core cache share, so the loop feels
// memory contention as the simulator does.
var hostRefBuf = make([]uint32, 1<<21)

// hostRef times a fixed loop of pseudo-random reads and writes five
// times. It exercises nothing of the repository, so it moves only with
// the host.
func hostRef() []float64 {
	out := make([]float64, 5)
	for i := range out {
		start := time.Now()
		x, s := uint32(12345), uint32(0)
		for j := 0; j < 500_000; j++ {
			x = x*1664525 + 1013904223
			k := (x >> 7) & (1<<21 - 1)
			s += hostRefBuf[k]
			if s&1 == 0 {
				hostRefBuf[k] = s
			}
		}
		out[i] = ms(time.Since(start))
	}
	return out
}

// startClean collects the heap, returns freed memory to the OS and
// resets the kernel's resident-set high-water mark, so peak_rss_mb
// measures the loop rather than the references and set-ups before it.
func startClean() {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
}

// resetPeakRSS resets VmHWM by writing 5 to clear_refs (Linux 4.0+);
// where that is unavailable the high-water mark covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssWindow is the span of one resident-set sample.
const rssWindow = time.Second

// sampleRSS reads and resets the resident-set high-water mark at the end
// of every rssWindow until the function it returns is called. That
// function returns the peak of each whole window, or the peak so far if
// no window has ended. peak_rss_mb is their 90th percentile: the run's
// single largest peak is where bursts of allocation happened to meet a
// late collection, which is chance more than program.
func sampleRSS() func() []float64 {
	stop, done := make(chan struct{}), make(chan struct{})
	var peaks []float64
	go func() {
		defer close(done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				peaks = append(peaks, peakRSSMiB())
				resetPeakRSS()
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		if len(peaks) == 0 {
			peaks = append(peaks, peakRSSMiB())
		}
		return peaks
	}
}

func endToEndMetrics(st *loopStats, setups, rss []float64, refs []reference) map[string]float64 {
	// Rounds run every key once, so the mean over the catalog is the
	// simulated work of an average op.
	var steps float64
	for _, r := range refs {
		steps += float64(r.steps)
	}
	steps /= float64(len(refs))
	rate := st.quietOpsPerSecond()
	m := map[string]float64{
		"setup_s":         median(setups),
		"ops_per_s":       rate,
		"latency_ms":      st.quietLatencyMS(),
		"latency_p50_ms":  percentile(st.latMS, 50),
		"latency_p90_ms":  percentile(st.latMS, 90),
		"latency_p99_ms":  percentile(st.latMS, 99),
		"latency_samples": float64(len(st.latMS)),
		"sim_mips":        rate * steps / 1e6,
		"peak_rss_mb":     percentile(rss, 90),
		"error_rate":      float64(st.failed) / float64(max(st.attempted, 1)),
		"slo_miss_frac":   0,
	}
	if st.openOps > 0 {
		m["slo_miss_frac"] = float64(st.sloMiss) / float64(st.openOps)
	}
	return m
}

// disturbedPct is the share, in percent, of a run's rounds and of each
// key's ops that the bounded metrics treat as slowed by the host. Other
// tenants of a shared host only ever slow an op down, and how much of a
// run they slow changes from run to run, so the run's median moves with
// the host; its fastest decile moves far less and is still slowed by any
// change to the code.
const disturbedPct = 10

// quietOpsPerSecond is the throughput of the run's least-disturbed
// rounds: per kind of round the (100 - disturbedPct)th percentile of its
// rates, combined as one round of every kind.
func (st *loopStats) quietOpsPerSecond() float64 {
	var ops, secs float64
	for _, r := range st.rounds {
		ops += float64(r.ops)
		secs += float64(r.ops) / percentile(r.rates, 100-disturbedPct)
	}
	if secs == 0 {
		return 0
	}
	return ops / secs
}

// quietLatencyMS is the mean over the catalog's keys of each key's
// disturbedPct-th percentile latency: the latency of an op of the
// catalog's mix when the host leaves it alone.
func (st *loopStats) quietLatencyMS() float64 {
	byKey := map[int][]float64{}
	for i, lat := range st.latMS {
		byKey[st.latKey[i]] = append(byKey[st.latKey[i]], lat)
	}
	if len(byKey) == 0 {
		return 0
	}
	var sum float64
	for _, lats := range byKey {
		sum += percentile(lats, disturbedPct)
	}
	return sum / float64(len(byKey))
}

// tracedRun replays the workload with every op and bench-side call in a
// span and a CPU profile running, then computes the per-layer metrics
// from probes of the keys the replay used.
func tracedRun(e *env, w workload, d time.Duration, st *loopStats, res *result, cfg runConfig) error {
	profPath := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.pprof", e.name, e.seed))
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	e.tr = newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	loopErr := w.loop(d, st)
	pprof.StopCPUProfile()
	spans := e.tr.snapshot()
	e.tr = nil
	runtime.ReadMemStats(&mem1)
	if err := f.Close(); err != nil {
		return err
	}
	if loopErr != nil {
		return loopErr
	}

	top, err := pprofTop(profPath)
	if err != nil {
		return err
	}
	flat, total, err := parsePprofTop(top)
	if err != nil {
		return err
	}
	// The paper metrics take seconds to compute; a quick smoke run
	// leaves them out.
	pins := map[string]float64{}
	if !e.quick {
		if pins, res.Pins, err = paperPins(); err != nil {
			return err
		}
	}

	agg := probe{}
	traced := 0
	for _, n := range st.keyCount {
		traced += n
	}
	for k, n := range st.keyCount {
		p, err := probeKey(e, w, k, e.workDir)
		if err != nil {
			return err
		}
		for name, v := range p {
			agg[name] += v * float64(n) / float64(traced)
		}
	}

	ops := float64(max(st.attempted, 1))
	m := map[string]float64{}
	for _, def := range perLayer {
		m[def.Name] = agg[def.Name]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a/b - 1
	}
	if agg["vm.run_quiet_ms"] > 0 {
		m["vm.quiet_mips"] = agg["_quiet_steps"] / agg["vm.run_quiet_ms"] / 1e3
	}
	m["pmu.count_overhead_frac"] = ratio(agg["miniperf.stat_ms"], agg["_stat_quiet_ms"])
	m["pmu.sample_overhead_frac"] = ratio(agg["miniperf.record_ms"], agg["_record_quiet_ms"])
	m["tma.overhead_frac"] = ratio(agg["tma.measure_ms"], agg["_tma_quiet_ms"])
	m["cache.compiled"] = float64(st.cacheCompiled) / ops
	m["cache.memory_hits"] = float64(st.cacheMem) / ops
	m["cache.disk_hits"] = float64(st.cacheDisk) / ops
	for name, v := range sharesFromTop(flat, total) {
		m[name] = v
	}
	m["sweep.merge_ms"] = median(st.mergeMS)
	m["mperfd.queue_depth_mean"] = mean(st.queueDepth)
	m["mperfd.rejected"] = float64(st.rejected)
	m["load.conn_wait_ms_p99"] = percentile(st.connWaitMS, 99)
	m["load.generator_lag_ms_p99"] = percentile(st.lagMS, 99)
	m["host.alloc_kb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / ops
	m["host.mallocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / ops
	m["host.gc_cycles"] = float64(mem1.NumGC-mem0.NumGC) / ops
	m["verify.golden_mismatches"] = float64(len(res.GoldenMismatches))
	for name, v := range pins {
		m[name] = v
	}
	var opTime time.Duration
	for _, s := range spans {
		if s.Parent == noSpan && s.Name == "op" {
			opTime += s.End - s.Start
		}
	}
	if opTime > 0 {
		m["trace.overhead_frac"] = float64(spanCost()*time.Duration(len(spans))) / float64(opTime)
	}
	m["trace.unattributed_frac"] = unattributedFrac(spans)
	res.Metrics = m

	res.SpanSelfMS = map[string]float64{}
	for name, d := range selfByName(spans) {
		res.SpanSelfMS[name] = ms(d)
	}
	tracePath := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.trace.json", e.name, e.seed))
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d spans; open in ui.perfetto.dev)\n", tracePath, len(spans))
	return nil
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printResult prints every metric of a run by name with its unit, and
// the verdict of the output checks.
func printResult(r *result) {
	kind := "untraced"
	if r.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s  seed %d  %gs  %s\n", r.Workload, r.Seed, r.Seconds, kind)
	tables := [][]metricDef{endToEnd, reportOnly}
	if r.Trace {
		tables = [][]metricDef{perLayer}
	}
	for _, tab := range tables {
		for _, d := range tab {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("  %-34s %14.6g %-9s %s\n", d.Name, v, d.Unit, d.Clock)
			}
		}
	}
	if r.Trace {
		fmt.Println("  span self time (ms, benchmark-side calls into each layer):")
		for _, name := range sortedKeys(r.SpanSelfMS) {
			fmt.Printf("    %-30s %12.3f\n", name, r.SpanSelfMS[name])
		}
		fmt.Println("  paper metrics (simulated, vs the paper's hardware; calibrated on these, no held-out data):")
		for _, l := range r.Pins {
			fmt.Println("   ", l)
		}
	}
	if r.Failed == 0 {
		fmt.Printf("CHECK OK: %d ops, every output matches its in-process reference\n", r.Attempted)
	} else {
		fmt.Printf("CHECK FAILED: %d of %d ops failed: %s\n", r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
	}
	if n := len(r.GoldenMismatches); n > 0 {
		fmt.Printf("!!! GOLDEN MISMATCH: %d catalog keys differ from bench/golden.json: %s\n", n, strings.Join(r.GoldenMismatches, ", "))
		fmt.Println("!!! The simulator's output changed. Refresh goldens only in a change to the benchmark itself.")
	} else {
		fmt.Println("GOLDEN OK: every catalog key matches bench/golden.json")
	}
}

// printResultLine prints the one-line JSON result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
func printResultLine(r *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	tab := endToEnd
	if r.Trace {
		tab = perLayer
	}
	metrics := map[string]value{}
	for _, d := range tab {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload runs times, each run in its own child
// process of this binary so that peak RSS and heap state are the
// workload's own. Runs interleave the workloads.
func runAll(cfg runConfig, runs int) ([]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []result
	for r := 0; r < runs; r++ {
		for _, def := range workloadDefs {
			seed := cfg.seed + int64(r)
			path := filepath.Join(cfg.outDir, fmt.Sprintf("child-%s-seed%d.json", def.name, seed))
			args := []string{"-workload", def.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-o", path}
			if cfg.trace {
				args = append(args, "-trace", "1")
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s run %d: %w", def.name, r, err)
			}
			res, err := loadResults(path)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
	}
	return out, nil
}
