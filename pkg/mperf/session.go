// Package mperf is the public profiling surface of the repository: one
// Session API over the paper's whole methodology. A session binds a
// platform (resolved by name from the platform registry) to a workload
// (resolved from the workload registry) and runs any set of pluggable
// collectors — stat counting, overflow-group sampling with the X60
// workaround, the two-phase roofline workflow, and level-1 Top-Down —
// over coordinated executions of that one workload, returning a single
// JSON-serializable Profile.
//
//	sess, _ := mperf.Open("x60", "sqlite")
//	prof, _ := sess.Run(mperf.MustCollectors("stat", "record", "topdown")...)
//	json.NewEncoder(os.Stdout).Encode(prof)
//
// RunMatrix sweeps platforms × workloads × collectors with a bounded
// worker pool for batch scenario studies.
//
// # Program caching
//
// Compilation is compile-once, instantiate-many: sessions build
// immutable vm.Program artifacts (verified post-pipeline IR, pre-bound
// execution plans, global layout and seeded data image) and share them
// through a ProgramCache keyed by
//
//	(workload, params fingerprint, vectorizer profile, lanes, instrument)
//
// — the plan key. Unoptimized builds carry an empty profile, so every
// platform's raw build of the same sized workload is one cached
// program; optimized builds separate exactly where the platform's
// pipeline configuration differs. Concurrent cache misses on one key
// collapse into a single build (singleflight), so matrix sweeps
// compile each distinct program exactly once regardless of scheduling.
// All sessions share DefaultProgramCache unless WithProgramCache
// supplies a private one; Profile.CompileStats reports each run's
// compiles-vs-hits so the reuse is observable in -json output.
package mperf

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"mperf/internal/isa"
	"mperf/internal/platform"
	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf/faultinject"
)

// eventsByName maps the generalized perf event names to their codes.
var eventsByName = map[string]isa.EventCode{
	"cycles":           isa.EventCycles,
	"instructions":     isa.EventInstructions,
	"cache-references": isa.EventCacheReferences,
	"cache-misses":     isa.EventCacheMisses,
	"branches":         isa.EventBranchInstructions,
	"branch-misses":    isa.EventBranchMisses,
	"stalled-cycles":   isa.EventStalledCycles,
}

// EventNames returns the generalized event names accepted by
// WithStatEvents, sorted.
func EventNames() []string {
	names := make([]string, 0, len(eventsByName))
	for n := range eventsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// defaultStatEvents is what the stat collector counts when the caller
// does not choose (the `miniperf stat` default set).
var defaultStatEvents = []string{
	"cycles", "instructions", "branches", "branch-misses",
	"cache-references", "cache-misses",
}

// Config is a run's configuration as data: workload sizing plus
// collector tuning. Sessions, daemon requests (flat in the request
// body), the CLI and sweep manifests all carry this one value. Zero
// fields mean the workload registry's and collectors' defaults.
type Config struct {
	// Events selects the stat collector's event set by generalized
	// name (see EventNames; default: the perf stat set).
	Events []string `json:"events,omitempty"`
	// SampleFreqHz is the record collector's -F (default 4000).
	SampleFreqHz uint64 `json:"sample_freq_hz,omitempty"`
	// MatmulN and MatmulTile size the tiled SGEMM (defaults 128/32).
	MatmulN    int `json:"matmul_n,omitempty"`
	MatmulTile int `json:"matmul_tile,omitempty"`
	// Elems is the vector length of the streaming kernels.
	Elems int `json:"elems,omitempty"`
	// MemsetWords is the memset buffer length in 8-byte words.
	MemsetWords int `json:"memset_words,omitempty"`
	// Sqlite replaces the sqlite workload's sizing as a whole.
	Sqlite *workloads.SqliteConfig `json:"sqlite,omitempty"`
}

// params is the workload sizing part of the configuration.
func (c Config) params() workloads.Params {
	return workloads.Params{Sqlite: c.Sqlite, MatmulN: c.MatmulN, MatmulTile: c.MatmulTile,
		Elems: c.Elems, MemsetWords: c.MemsetWords}
}

// statEvents resolves the stat event names to codes.
func (c Config) statEvents() ([]isa.EventCode, error) {
	names := c.Events
	if len(names) == 0 {
		names = defaultStatEvents
	}
	evs := make([]isa.EventCode, 0, len(names))
	for _, name := range names {
		ev, ok := eventsByName[strings.ToLower(strings.TrimSpace(name))]
		if !ok {
			return nil, fmt.Errorf("mperf: unknown event %q (known: %s)",
				name, strings.Join(EventNames(), ", "))
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// Validate rejects what no session could run: an unknown event name,
// a negative size, or a sqlite sizing BuildSqliteSim refuses.
func (c Config) Validate() error {
	if _, err := c.statEvents(); err != nil {
		return err
	}
	if c.MatmulN < 0 || c.MatmulTile < 0 || c.Elems < 0 || c.MemsetWords < 0 {
		return fmt.Errorf("mperf: negative size (%s)", c.params().Fingerprint())
	}
	if c.Sqlite != nil {
		if err := c.Sqlite.Validate(); err != nil {
			return fmt.Errorf("mperf: %w", err)
		}
	}
	return nil
}

// options is what the functional options fill in: the configuration
// plus the attachments, which are not configuration.
type options struct {
	Config
	cache     *ProgramCache
	execStats *vm.ExecStats
}

// Option configures a Session at Open time.
type Option func(*options)

// resolveOptions applies opts in order.
func resolveOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithConfig sets the whole configuration; later options refine it.
func WithConfig(c Config) Option { return func(o *options) { o.Config = c } }

// WithSqliteConfig overrides the sqlite workload's sizing.
func WithSqliteConfig(cfg workloads.SqliteConfig) Option { return func(o *options) { o.Sqlite = &cfg } }

// WithMatmulSize overrides the matmul workload's dimension and tile.
func WithMatmulSize(n, tile int) Option {
	return func(o *options) { o.MatmulN, o.MatmulTile = n, tile }
}

// WithElems overrides the element count of the streaming kernels.
func WithElems(n int) Option { return func(o *options) { o.Elems = n } }

// WithMemsetWords overrides the memset buffer length in 8-byte words.
func WithMemsetWords(words int) Option { return func(o *options) { o.MemsetWords = words } }

// WithSampleFreq sets the record collector's sampling frequency in Hz.
func WithSampleFreq(hz uint64) Option { return func(o *options) { o.SampleFreqHz = hz } }

// WithStatEvents selects the events the stat collector counts, by
// generalized name (see EventNames).
func WithStatEvents(names ...string) Option { return func(o *options) { o.Events = names } }

// WithProgramCache makes the session compile through the given cache
// instead of the process-wide default, isolating its compiles (tests,
// cold-path measurements) or scoping a cache to one sweep. A nil cache
// restores the default.
func WithProgramCache(cache *ProgramCache) Option {
	return func(o *options) { o.cache = cache }
}

// WithHierarchicalRoofline is a no-op: the roofline collector always
// emits the hierarchical L1/L2/DRAM model under the profile's
// "hierarchical" key.
//
// Deprecated: the hierarchical roofline is always on.
func WithHierarchicalRoofline() Option {
	return func(*options) {}
}

// ExecStats aliases the VM's execution coverage accumulator so
// callers (miniperf -vm-stats) need not import internal packages.
type ExecStats = vm.ExecStats

// WithExecStats installs a VM coverage accumulator on every machine
// the session instantiates: step and loop-kernel counters flush
// into it when collectors release their machines. The counters are
// diagnostic only (miniperf -vm-stats) and never enter a Profile, so
// profiles stay identical with and without an accumulator installed.
func WithExecStats(st *vm.ExecStats) Option {
	return func(o *options) { o.execStats = st }
}

// Session is one platform × workload binding, ready to run collectors.
type Session struct {
	plat      *platform.Platform
	spec      *workloads.Spec
	cfg       Config
	cache     *ProgramCache
	execStats *vm.ExecStats

	// compiled/hits/diskHits track this session's traffic through the
	// program cache; Session.Run reports the per-run delta as
	// CompileStats.
	compiled atomic.Uint64
	hits     atomic.Uint64
	diskHits atomic.Uint64
}

// Open resolves the platform and workload through their registries and
// validates the options' Config. Unknown names and bad sizes surface
// here, before any machine is built.
func Open(platformName, workloadName string, opts ...Option) (*Session, error) {
	o := resolveOptions(opts)
	o.Events = slices.Clone(o.Events)
	if err := o.Validate(); err != nil {
		return nil, err
	}
	plat, err := platform.Lookup(platformName)
	if err != nil {
		return nil, fmt.Errorf("mperf: %w", err)
	}
	spec, err := workloads.Lookup(workloadName, o.params())
	if err != nil {
		return nil, fmt.Errorf("mperf: %w", err)
	}
	cache := o.cache
	if cache == nil {
		cache = defaultCache()
	}
	return &Session{plat: plat, spec: spec, cfg: o.Config, cache: cache, execStats: o.execStats}, nil
}

// Platform returns the resolved platform.
func (s *Session) Platform() *platform.Platform { return s.plat }

// Workload returns the resolved workload spec.
func (s *Session) Workload() *workloads.Spec { return s.spec }

// SampleFreq returns the configured sampling frequency (0 = default).
func (s *Session) SampleFreq() uint64 { return s.cfg.SampleFreqHz }

// StatLabels returns the stat event labels in request order, for
// ordered rendering of Profile.Events.
func (s *Session) StatLabels() []string {
	evs, _ := s.cfg.statEvents() // validated by Open
	labels := make([]string, len(evs))
	for i, ev := range evs {
		labels[i] = ev.String()
	}
	return labels
}

// NewMachine instantiates the workload unoptimized on a fresh hart —
// the raw build the counting and sampling collectors profile, with
// cold caches and a zeroed PMU. The compiled program (including the
// seeded data image) comes from the session's program cache, so only
// the first machine of a given plan key pays for compilation; every
// later one is an O(memory copy) instantiation.
func (s *Session) NewMachine() (*vm.Machine, error) {
	return s.instantiate(false, false)
}

// NewOptimizedMachine instantiates the workload compiled through the
// platform's vectorizer pipeline (the per-target builds of §5.2) on a
// fresh hart. With instrument set, the roofline instrumentation pass
// adds the two-phase region counters. Cached like NewMachine.
func (s *Session) NewOptimizedMachine(instrument bool) (*vm.Machine, error) {
	return s.instantiate(true, instrument)
}

// ProgramKey returns the cache key of the session's build flavor.
func (s *Session) ProgramKey(optimize, instrument bool) ProgramKey {
	key := ProgramKey{
		Workload: s.spec.Name,
		Params:   s.cfg.params().Fingerprint(),
		Codegen:  vm.CodegenTag(),
	}
	if optimize {
		key.Profile = s.plat.VectorizerProfile
		key.Lanes = s.plat.Core.VectorLanes32
		key.Instrument = instrument
	}
	return key
}

// Program returns the session's compiled artifact for the given build
// flavor, compiling it through the session's cache at most once per
// plan key. A build that panics (a malformed workload module, a
// compiler bug) is contained into a *PanicError rather than unwinding
// the caller; the failed entry is not cached, so a later request can
// retry the build.
func (s *Session) Program(optimize, instrument bool) (*vm.Program, error) {
	prog, src, err := s.cache.Get(s.ProgramKey(optimize, instrument), func() (prog *vm.Program, err error) {
		defer func() {
			if r := recover(); r != nil {
				prog, err = nil, NewPanicError("compile "+s.spec.Name, r)
			}
		}()
		if err := faultinject.Error(faultinject.CompileFail); err != nil {
			return nil, err
		}
		return s.spec.BuildProgram(s.plat, optimize, instrument)
	})
	if err != nil {
		return nil, fmt.Errorf("mperf: %w", err)
	}
	switch src {
	case SourceMemory:
		s.hits.Add(1)
	case SourceDisk:
		s.diskHits.Add(1)
	default:
		s.compiled.Add(1)
	}
	return prog, nil
}

func (s *Session) instantiate(optimize, instrument bool) (*vm.Machine, error) {
	prog, err := s.Program(optimize, instrument)
	if err != nil {
		return nil, err
	}
	m := vm.NewMachine(prog, s.plat)
	if s.execStats != nil {
		m.SetExecStats(s.execStats)
	}
	return m, nil
}

// Run executes each collector over a coordinated execution of the
// session's workload (each collector gets a fresh cold machine, so the
// runs are independent and deterministic) and merges the results into
// one Profile. A collector failure — including a contained panic,
// surfaced as a *PanicError-backed CollectorError — is recorded as a
// typed error on the profile rather than aborting the remaining
// collectors; Run itself errors only on misuse (no collectors).
func (s *Session) Run(collectors ...Collector) (*Profile, error) {
	return s.RunStream(context.Background(), nil, collectors...)
}
