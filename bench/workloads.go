package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mperf/internal/miniperf"
	"mperf/pkg/mperf"
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name, why string
	catalog   func(quick bool) []opKey
	new       func(e *env) workload
}

// workload is the per-run state of one workload. setup builds a fresh
// cold state, replacing the previous one, and returns the part of its
// time that counts as set-up; loop measures ops for d (at least one
// round) into st.
type workload interface {
	setup() (time.Duration, error)
	loop(d time.Duration, st *loopStats) error
	teardown()
}

var workloadDefs = []workloadDef{
	{
		name:    "fig4-roofline",
		why:     "closed loop over the Fig 4 hierarchical roofline of an L1-resident blocked matmul: fused superblocks, native loop kernels and charging",
		catalog: func(bool) []opKey { return fig4Catalog() },
		new:     func(e *env) workload { return &fig4{env: e} },
	},
	{
		name:    "table2-hotspots",
		why:     "closed loop over Table 2 sqlite sampling (X60 overflow-group workaround): per-instruction loop, PMU delivery, hotspots and flame graphs",
		catalog: func(bool) []opKey { return table2Catalog() },
		new:     func(e *env) workload { return &table2{env: e} },
	},
	{
		name: "membound-sweep",
		why:  "two sweep workers over memory-bound kernels at L1/L2/DRAM working sets, programs loaded from a filled artifact store: the only disk I/O",
		catalog: func(quick bool) []opKey {
			if quick {
				return memCatalog(memClasses[:1])
			}
			return memCatalog(memClasses)
		},
		new: func(e *env) workload { return newMembound(e) },
	},
	{
		name: "daemon-serve",
		why:  "open-loop Poisson requests, then a saturation phase, against mperfd over HTTP: small requests expose queueing, transport and instantiate",
		catalog: func(quick bool) []opKey {
			if quick {
				return daemonCatalog(daemonElems[:1])
			}
			return daemonCatalog(daemonElems)
		},
		new: func(e *env) workload { return &daemon{env: e} },
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// env is what every workload of one run shares: the catalog, its
// references, the seed, and the tracer (nil when untraced).
type env struct {
	name    string
	seed    int64
	quick   bool
	workDir string
	keys    []opKey
	refs    []reference
	tr      *tracer
}

// loopStats accumulates one measured loop. It is filled under mu when
// several clients run at once.
type loopStats struct {
	mu sync.Mutex

	latMS     []float64 // op latencies behind the percentiles
	latKey    []int     // the catalog key of each latency sample
	attempted int
	failed    int
	failures  []string // the first few, for the report

	// rounds are the throughput samples, one per round (ops of the round
	// / its wall time), by kind of round: a round of the whole catalog is
	// kind 0; membound-sweep's rounds differ in cost, so each working-set
	// class is a kind of its own.
	rounds map[int]*roundSamples

	sloMiss    int // daemon open phase
	openOps    int
	lagMS      []float64
	connWaitMS []float64
	queueDepth []float64
	rejected   uint64
	mergeMS    []float64

	keyCount                           map[int]int
	cacheCompiled, cacheMem, cacheDisk uint64
}

type roundSamples struct {
	ops   int       // ops in one round of this kind
	rates []float64 // ops / wall time, one per round
}

// addRound records one round of the given kind: ops ops in wall.
func (st *loopStats) addRound(kind, ops int, wall time.Duration) {
	if st.rounds == nil {
		st.rounds = map[int]*roundSamples{}
	}
	r := st.rounds[kind]
	if r == nil {
		r = &roundSamples{ops: ops}
		st.rounds[kind] = r
	}
	r.rates = append(r.rates, float64(ops)/wall.Seconds())
}

// finish checks one op's output against its key's reference and records
// it. out is the op's encoded profile, or nil to encode it here.
func (e *env) finish(st *loopStats, k int, prof *mperf.Profile, out []byte, err error) bool {
	if err == nil && prof != nil {
		err = prof.Err()
	}
	if err == nil && prof == nil {
		err = fmt.Errorf("no profile")
	}
	if err == nil && out == nil {
		out, err = profileJSON(prof)
	}
	if err == nil && digestOf(out) != e.refs[k].digest {
		err = fmt.Errorf("output digest differs from the in-process reference")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.attempted++
	if st.keyCount == nil {
		st.keyCount = map[int]int{}
	}
	st.keyCount[k]++
	if prof != nil && prof.CompileStats != nil {
		st.cacheCompiled += prof.CompileStats.Compiled
		st.cacheMem += prof.CompileStats.CacheHits
		st.cacheDisk += prof.CompileStats.DiskHits
	}
	if err != nil {
		st.failed++
		if len(st.failures) < 5 {
			st.failures = append(st.failures, fmt.Sprintf("%s: %v", e.keys[k].ID(), err))
		}
		return false
	}
	return true
}

// closedLoop runs one client through whole seeded rounds of the catalog
// until d has passed.
func (e *env) closedLoop(d time.Duration, st *loopStats, op func(k, opID, root int) (*mperf.Profile, []byte, error)) {
	n := len(e.keys)
	seq := newKeySequence(e.seed, n)
	start := time.Now()
	roundStart, prevEnd := start, start
	for i := 0; i == 0 || i%n != 0 || time.Since(start) < d; i++ {
		k := seq.at(i)
		t0 := time.Now()
		root := e.tr.begin("op", noSpan, i, 0)
		prof, out, err := op(k, i, root)
		lat := time.Since(t0)
		e.tr.end(root)
		e.finish(st, k, prof, out, err)
		st.latMS = append(st.latMS, ms(lat))
		st.latKey = append(st.latKey, k)
		st.lagMS = append(st.lagMS, ms(t0.Sub(prevEnd)))
		prevEnd = time.Now()
		if i%n == n-1 {
			st.addRound(0, n, prevEnd.Sub(roundStart))
			roundStart = prevEnd
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// call wraps fn in a child span of root.
func (e *env) call(name string, root, opID, lane int, fn func()) {
	id := e.tr.begin(name, root, opID, lane)
	fn()
	e.tr.end(id)
}

// fig4 is `miniperf roofline -hierarchical` on a 96×96 matmul: open a
// session, run the roofline collector, print the JSON and both plots.
type fig4 struct {
	*env
	cache *mperf.ProgramCache
}

func (w *fig4) setup() (time.Duration, error) {
	start := time.Now()
	w.cache = mperf.NewProgramCache()
	for _, k := range w.keys {
		sess, err := k.open(w.cache)
		if err != nil {
			return 0, err
		}
		if _, err := sess.Program(true, true); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (w *fig4) loop(d time.Duration, st *loopStats) error {
	w.closedLoop(d, st, func(k, opID, root int) (prof *mperf.Profile, out []byte, err error) {
		var sess *mperf.Session
		w.call("mperf.Open", root, opID, 0, func() { sess, err = w.keys[k].open(w.cache) })
		if err != nil {
			return nil, nil, err
		}
		w.call("mperf.Session.Run", root, opID, 0, func() { prof, err = sess.Run(w.keys[k].collectors()...) })
		if err != nil || prof.Err() != nil {
			return prof, nil, err
		}
		w.call("mperf.WriteJSON", root, opID, 0, func() { out, err = profileJSON(prof) })
		w.call("roofline.ASCIIPlot", root, opID, 0, func() {
			_ = prof.Roofline.Model.ASCIIPlot(100, 20) + prof.Roofline.HierModel.ASCIIPlot(100, 20)
		})
		return prof, out, err
	})
	return nil
}

func (w *fig4) teardown() {}

// table2 is the Table 2 record run plus its post-processing: hotspot
// table, cycles flame graph as ASCII and SVG, and the JSON profile.
type table2 struct {
	*env
	cache *mperf.ProgramCache
}

func (w *table2) setup() (time.Duration, error) {
	start := time.Now()
	w.cache = mperf.NewProgramCache()
	for _, k := range w.keys {
		sess, err := k.open(w.cache)
		if err != nil {
			return 0, err
		}
		if _, err := sess.Program(false, false); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (w *table2) loop(d time.Duration, st *loopStats) error {
	w.closedLoop(d, st, func(k, opID, root int) (prof *mperf.Profile, out []byte, err error) {
		var sess *mperf.Session
		w.call("mperf.Open", root, opID, 0, func() { sess, err = w.keys[k].open(w.cache) })
		if err != nil {
			return nil, nil, err
		}
		w.call("mperf.Session.Run", root, opID, 0, func() { prof, err = sess.Run(w.keys[k].collectors()...) })
		if err != nil || prof.Err() != nil {
			return prof, nil, err
		}
		w.call("miniperf.Hotspots", root, opID, 0, func() { prof.Recording.Hotspots() })
		w.call("flamegraph", root, opID, 0, func() {
			g := prof.Recording.FlameGraph(w.keys[k].Platform, miniperf.MetricCycles)
			_ = g.ASCII(100) + g.SVG(1000)
		})
		w.call("mperf.WriteJSON", root, opID, 0, func() { out, err = profileJSON(prof) })
		return prof, out, err
	})
	return nil
}

func (w *table2) teardown() {}

// membound runs the sweep layer the way `miniperf matrix -sweep-dir
// -cache-dir` does after a restart: each round is one working-set
// class, swept by two workers pulling one-cell shards into a fresh
// sweep directory, on a fresh ProgramCache over the artifact store that
// setup filled, and closed by MergeSweep.
type membound struct {
	*env
	storeDir string
	// keyOf maps class → sweep cell index → catalog key.
	keyOf map[int][]int
}

const sweepWorkers = 2

func newMembound(e *env) *membound {
	w := &membound{env: e, storeDir: filepath.Join(e.workDir, "store"), keyOf: map[int][]int{}}
	for i, k := range e.keys {
		w.keyOf[k.Elems] = append(w.keyOf[k.Elems], i)
	}
	return w
}

func (w *membound) classes() []int {
	var out []int
	for _, c := range memClasses {
		if len(w.keyOf[c]) > 0 {
			out = append(out, c)
		}
	}
	return out
}

func (w *membound) setup() (time.Duration, error) {
	if err := os.RemoveAll(w.storeDir); err != nil {
		return 0, err
	}
	start := time.Now()
	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(w.storeDir); err != nil {
		return 0, err
	}
	tasks := make([]func() error, len(w.keys))
	for i, k := range w.keys {
		tasks[i] = func() error {
			sess, err := k.open(cache)
			if err != nil {
				return err
			}
			if _, err := sess.Program(false, false); err != nil {
				return err
			}
			_, err = sess.Program(true, true)
			return err
		}
	}
	err := mperf.Parallel(sweepWorkers, tasks...)
	return time.Since(start), err
}

// loop runs groups of one round per class, the classes in seeded order,
// so every group sweeps the whole catalog once. Each round is a
// throughput sample of its class.
func (w *membound) loop(d time.Duration, st *loopStats) error {
	classes := w.classes()
	start := time.Now()
	round := 0
	for group := 0; group == 0 || time.Since(start) < d; group++ {
		for _, ci := range rng(w.seed, 3<<32|uint64(group)).Perm(len(classes)) {
			class := classes[ci]
			wall, err := w.round(class, round, st)
			if err != nil {
				return err
			}
			st.addRound(class, len(w.keyOf[class]), wall)
			round++
		}
	}
	return nil
}

// round sweeps one class and returns its wall time, from the first shard
// to the end of the merge.
func (w *membound) round(class, round int, st *loopStats) (time.Duration, error) {
	cache := mperf.NewProgramCache()
	if err := cache.SetArtifactDir(w.storeDir); err != nil {
		return 0, err
	}
	dir := filepath.Join(w.workDir, fmt.Sprintf("sweep-%d", round))
	defer os.RemoveAll(dir)
	spec := mperf.MatrixSpec{
		Platforms:  memPlatforms,
		Workloads:  memWorkloads(class),
		Collectors: memCollectors,
		Options:    append(memOptions(class), mperf.WithProgramCache(cache)),
	}
	keys := w.keyOf[class]
	cells := len(keys)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	st.mu.Lock()
	opBase := st.attempted
	st.mu.Unlock()
	for lane := 0; lane < sweepWorkers; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for cell := range jobs {
				got := time.Now()
				opID := opBase + cell
				root := w.tr.begin("op", noSpan, opID, lane)
				t0 := time.Now()
				var err error
				w.call("mperf.RunSweep", root, opID, lane, func() {
					_, err = mperf.RunSweep(context.Background(), spec, mperf.SweepConfig{Dir: dir, ShardIndex: cell, ShardCount: cells})
				})
				lat := time.Since(t0)
				w.tr.end(root)
				st.mu.Lock()
				st.latMS = append(st.latMS, ms(lat))
				st.latKey = append(st.latKey, keys[cell])
				st.connWaitMS = append(st.connWaitMS, ms(got.Sub(free)))
				st.lagMS = append(st.lagMS, ms(t0.Sub(got)))
				if err != nil && len(st.failures) < 5 {
					st.failures = append(st.failures, err.Error())
				}
				st.mu.Unlock()
				free = time.Now()
			}
		}()
	}
	for _, cell := range roundPerm(w.seed, round, cells) {
		jobs <- cell
	}
	close(jobs)
	wg.Wait()

	t0 := time.Now()
	id := w.tr.begin("mperf.MergeSweep", noSpan, round, 0)
	res, err := mperf.MergeSweep(dir)
	w.tr.end(id)
	merge := time.Since(t0)
	wall := time.Since(start)

	cs := cache.Stats()
	for i, k := range keys {
		var prof *mperf.Profile
		cellErr := err
		if err == nil {
			prof = res.Cells[i].Profile
			if msg := res.Cells[i].Error; msg != "" {
				cellErr = fmt.Errorf("%s", msg)
			}
		}
		w.finish(st, k, prof, nil, cellErr)
	}
	st.mu.Lock()
	st.mergeMS = append(st.mergeMS, ms(merge))
	st.cacheCompiled += cs.Compiled
	st.cacheMem += cs.CacheHits
	st.cacheDisk += cs.DiskHits
	st.mu.Unlock()
	return wall, nil
}

func (w *membound) teardown() {}
