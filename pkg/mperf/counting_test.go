package mperf_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"mperf/internal/vm"
	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
)

// alone hides a built-in collector from RunStream's counting runs: a
// collector wrapped in it runs through its own Collect, on its own
// execution of the workload, as every collector did before stat and
// topdown shared a counting run. A Run of alone collectors is the
// reference the shared runs must reproduce.
type alone struct{ mperf.Collector }

func aloneCollectors(names ...string) []mperf.Collector {
	cs := mperf.MustCollectors(names...)
	for i, c := range cs {
		cs[i] = alone{c}
	}
	return cs
}

// profileJSON runs cs on sess and returns the profile's JSON with the
// panic stacks removed, which name goroutines and frames, not results.
func profileJSON(t *testing.T, sess *mperf.Session, cs []mperf.Collector) []byte {
	t.Helper()
	prof, err := sess.Run(cs...)
	if err != nil {
		t.Fatal(err)
	}
	return stacklessJSON(t, prof)
}

func stacklessJSON(t *testing.T, v any) []byte {
	t.Helper()
	if prof, ok := v.(*mperf.Profile); ok && prof != nil {
		for i := range prof.Errors {
			prof.Errors[i].Stack = ""
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runSteps is the number of interpreted steps one Run of the named
// collectors executes on a fresh catalog session.
func runSteps(t *testing.T, plat, name string, opts []mperf.Option, collectors ...string) uint64 {
	t.Helper()
	var st mperf.ExecStats
	opts = append(opts, mperf.WithExecStats(&st))
	if _, err := catalogSessionOn(t, plat, name, opts...).Run(mperf.MustCollectors(collectors...)...); err != nil {
		t.Fatal(err)
	}
	return st.TotalSteps.Load()
}

// TestCountingCollectorsShareOneRun pins the counting runs catalog-wide:
// stat and topdown in one Run give the profile that separate
// executions give, in either order and around record, and execute the
// raw build once where the platform's PMU can count both event sets at
// once. On the U74 it cannot: the default stat set does not even fit
// alone (EBUSY), and the four-event set fits but not with topdown's
// stalled-cycles, so there each collector keeps its own execution and
// the profile, errors included, is unchanged.
func TestCountingCollectorsShareOneRun(t *testing.T) {
	orders := [][]string{{"stat", "topdown"}, {"topdown", "stat"}, {"stat", "record", "topdown"}}
	u74Four := []mperf.Option{mperf.WithStatEvents("cycles", "instructions", "branches", "branch-misses")}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			type setup struct {
				plat   string
				opts   []mperf.Option
				shared bool
			}
			setups := []setup{{"x60", nil, true}, {"i5", nil, true}, {"c910", nil, true},
				{"u74", nil, false}, {"u74", u74Four, false}}
			for _, su := range setups {
				cache := mperf.NewProgramCache()
				sess := catalogSessionOn(t, su.plat, name, append(su.opts, mperf.WithProgramCache(cache))...)
				// Warm the cache, so both sides of each comparison count
				// the same cache hits.
				profileJSON(t, sess, mperf.MustCollectors("stat", "record"))
				for _, order := range orders {
					got := profileJSON(t, sess, mperf.MustCollectors(order...))
					want := profileJSON(t, sess, aloneCollectors(order...))
					if !bytes.Equal(got, want) {
						t.Errorf("%s %v: shared counting run changed the profile\nshared:   %s\nseparate: %s",
							su.plat, order, got, want)
					}
				}

				both := runSteps(t, su.plat, name, su.opts, "stat", "topdown")
				want := runSteps(t, su.plat, name, su.opts, "stat")
				if !su.shared {
					want += runSteps(t, su.plat, name, su.opts, "topdown")
				}
				if both != want {
					t.Errorf("%s: Run(stat, topdown) interpreted %d steps, want %d (shared=%v)",
						su.plat, both, want, su.shared)
				}
			}
		})
	}
}

// streamed is one RunStream: its merged profile, its error and the
// partials its sink saw, as stackless JSON.
type streamed struct {
	profile, partials []byte
	err               error
}

// TestCountingRunFailures pins that sharing a counting run changes no
// failure: for each failure — a step-budget trap in the workload, a
// panic in it, a compile failure once or always, an injected collector
// panic or error, a context cancelled between collectors — RunStream
// of stat and topdown, in either order, reports the same profile,
// errors and streamed partials as separate executions do.
func TestCountingRunFailures(t *testing.T) {
	type failure struct {
		name string
		// arm sets the failure up on a fresh session before each run.
		arm func(sess *mperf.Session)
		// cancelAfter cancels the context once that many partials
		// streamed (0: never).
		cancelAfter int
	}
	wrapArgs := func(wrap func(m *vm.Machine)) func(*mperf.Session) {
		return func(sess *mperf.Session) {
			spec := sess.Workload()
			args := spec.Args
			spec.Args = func(m *vm.Machine) ([]uint64, error) {
				wrap(m)
				return args(m)
			}
		}
	}
	fault := func(point string, opts ...faultinject.Option) func(*mperf.Session) {
		return func(*mperf.Session) {
			faultinject.Reset()
			faultinject.Arm(point, opts...)
		}
	}
	failures := []failure{
		{name: "step budget", arm: wrapArgs(func(m *vm.Machine) { m.MaxSteps = 1000 })},
		{name: "workload panic", arm: wrapArgs(func(*vm.Machine) { panic("seeded workload panic") })},
		{name: "compile fail once", arm: fault(faultinject.CompileFail, faultinject.Times(1))},
		{name: "compile fail always", arm: fault(faultinject.CompileFail)},
		{name: "collector panic", arm: fault(faultinject.CollectorPanic, faultinject.Times(1))},
		{name: "collector fail", arm: fault(faultinject.CollectorFail, faultinject.Times(1))},
		{name: "cancelled", arm: func(*mperf.Session) {}, cancelAfter: 1},
	}
	t.Cleanup(faultinject.Reset)

	run := func(f failure, cs []mperf.Collector) streamed {
		faultinject.Reset()
		sess, err := mperf.Open("x60", "dot", streamOpts(mperf.NewProgramCache())...)
		if err != nil {
			t.Fatal(err)
		}
		f.arm(sess)
		defer faultinject.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var partials []mperf.CollectorResult
		prof, err := sess.RunStream(ctx, func(res mperf.CollectorResult) {
			partials = append(partials, res)
			if len(partials) == f.cancelAfter {
				cancel()
			}
		}, cs...)
		return streamed{profile: stacklessJSON(t, prof), partials: stacklessJSON(t, partials), err: err}
	}
	for _, f := range failures {
		for _, order := range [][]string{{"stat", "topdown"}, {"topdown", "stat"}} {
			got := run(f, mperf.MustCollectors(order...))
			want := run(f, aloneCollectors(order...))
			if !bytes.Contains(want.profile, []byte(`"errors"`)) {
				t.Errorf("%s %v: separate runs report no error; the failure was not set up", f.name, order)
			}
			if !bytes.Equal(got.profile, want.profile) || got.err != want.err {
				t.Errorf("%s %v: shared run reported\n%s (%v)\nseparate runs\n%s (%v)",
					f.name, order, got.profile, got.err, want.profile, want.err)
			}
			if !bytes.Equal(got.partials, want.partials) {
				t.Errorf("%s %v: shared run streamed\n%s\nseparate runs\n%s",
					f.name, order, got.partials, want.partials)
			}
		}
	}
}

// TestCountingRunsConcurrent runs stat and topdown from two goroutines
// on one Session: the counting runs belong to each call, so concurrent
// Runs share nothing mutable (CI runs this package under -race) and
// each gets the serial profile.
func TestCountingRunsConcurrent(t *testing.T) {
	sess, err := mperf.Open("x60", "dot", streamOpts(mperf.NewProgramCache())...)
	if err != nil {
		t.Fatal(err)
	}
	cs := func() []mperf.Collector { return mperf.MustCollectors("stat", "topdown") }
	strip := func(prof *mperf.Profile) []byte {
		prof.CompileStats = nil
		return stacklessJSON(t, prof)
	}
	serial, err := sess.Run(cs()...)
	if err != nil {
		t.Fatal(err)
	}
	want := strip(serial)
	var wg sync.WaitGroup
	got := make([][]byte, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				prof, err := sess.Run(cs()...)
				if err != nil {
					t.Error(err)
					return
				}
				if got[g] = strip(prof); !bytes.Equal(got[g], want) {
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("goroutine %d: profile\n%s\nwant the serial\n%s", g, b, want)
		}
	}
}
