package mperf_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mperf/pkg/mperf"
)

// streamOpts sizes the workloads down so the whole catalog streams
// quickly, with a private cache per call site.
func streamOpts(cache *mperf.ProgramCache) []mperf.Option {
	return []mperf.Option{
		mperf.WithProgramCache(cache),
		mperf.WithElems(2048),
		mperf.WithMatmulSize(32, 8),
		mperf.WithMemsetWords(1 << 12),
	}
}

// TestRunStreamMatchesRun pins the daemon's core invariant: a sink
// observes the run but cannot change it. The merged profile RunStream
// returns while streaming every partial to a sink is byte-identical
// (JSON) to what Run, which streams nothing, produces for the same
// request, CompileStats included.
func TestRunStreamMatchesRun(t *testing.T) {
	for _, platName := range []string{"x60", "i5", "u74"} {
		for _, wl := range []string{"dot", "matmul", "sqlite"} {
			collectors := []string{"stat", "record", "topdown"}

			run := func(stream bool) []byte {
				sess, err := mperf.Open(platName, wl, streamOpts(mperf.NewProgramCache())...)
				if err != nil {
					t.Fatalf("%s × %s: %v", platName, wl, err)
				}
				var prof *mperf.Profile
				if stream {
					var streamed []mperf.CollectorResult
					prof, err = sess.RunStream(context.Background(), func(res mperf.CollectorResult) {
						streamed = append(streamed, res)
					}, mperf.MustCollectors(collectors...)...)
					if len(streamed) != len(collectors) {
						t.Errorf("%s × %s: %d results streamed, want %d", platName, wl, len(streamed), len(collectors))
					}
				} else {
					prof, err = sess.Run(mperf.MustCollectors(collectors...)...)
				}
				if err != nil {
					t.Fatalf("%s × %s: %v", platName, wl, err)
				}
				data, err := json.Marshal(prof)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}

			sequential := run(false)
			streamed := run(true)
			if !bytes.Equal(sequential, streamed) {
				t.Errorf("%s × %s: streamed profile diverged from Run:\nrun:    %s\nstream: %s",
					platName, wl, sequential, streamed)
			}
		}
	}
}

// TestRunStreamCompletionOrder checks the streaming contract: one
// result per collector, emitted in declared order with Seq equal to
// the collector's index, partials carrying that collector's section.
func TestRunStreamCompletionOrder(t *testing.T) {
	sess, err := mperf.Open("x60", "dot", streamOpts(mperf.NewProgramCache())...)
	if err != nil {
		t.Fatal(err)
	}
	var results []mperf.CollectorResult
	declared := []string{"stat", "topdown", "record"}
	prof, err := sess.RunStream(context.Background(), func(res mperf.CollectorResult) {
		results = append(results, res)
	}, mperf.MustCollectors(declared...)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d streamed results, want 3", len(results))
	}
	seen := map[string]bool{}
	for i, res := range results {
		if res.Seq != i || res.Collector != declared[i] {
			t.Errorf("result %d is %s with seq %d, want %s with seq %d (declared order)",
				i, res.Collector, res.Seq, declared[i], i)
		}
		if res.Error != "" {
			t.Errorf("collector %s failed: %s", res.Collector, res.Error)
		}
		if res.Partial == nil {
			t.Fatalf("collector %s streamed no partial", res.Collector)
		}
		seen[res.Collector] = true
		switch res.Collector {
		case "stat":
			if res.Partial.Events == nil {
				t.Error("stat partial has no events")
			}
		case "topdown":
			if res.Partial.TopDown == nil {
				t.Error("topdown partial has no breakdown")
			}
		case "record":
			// A tiny workload can legitimately yield zero samples at
			// the default frequency; the leader label marks success.
			if res.Partial.SamplingLeader == "" {
				t.Error("record partial has no sampling leader")
			}
		}
	}
	if len(seen) != 3 {
		t.Errorf("streamed collectors %v, want all three", seen)
	}
	if prof.Events == nil || prof.TopDown == nil || prof.SamplingLeader == "" {
		t.Error("merged profile is missing sections")
	}
}

// TestRunStreamCancelled: a dead context skips unstarted collectors,
// reports them as collector errors, and surfaces the context error.
func TestRunStreamCancelled(t *testing.T) {
	sess, err := mperf.Open("x60", "dot", streamOpts(mperf.NewProgramCache())...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var streamed int
	prof, err := sess.RunStream(ctx, func(mperf.CollectorResult) { streamed++ },
		mperf.MustCollectors("stat", "topdown")...)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if streamed != 0 {
		t.Errorf("%d results streamed after cancellation, want 0", streamed)
	}
	if len(prof.Errors) != 2 {
		t.Errorf("profile records %d errors, want 2 (both collectors skipped): %v", len(prof.Errors), prof.Errors)
	}
}

// probeCollector is a test-local collector that records how many
// Collect calls are in flight at once.
type probeCollector struct {
	name     string
	inFlight *atomic.Int32
	peak     *atomic.Int32
}

func (c probeCollector) Name() string { return c.name }

func (c probeCollector) Collect(*mperf.Session, *mperf.Profile) error {
	n := c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(20 * time.Millisecond)
	return nil
}

// TestRunStreamRunsOneCollectorAtATime pins the runner's execution
// model: collectors run one after another in declared order, so a
// request never holds more than one collector's machine at a time, and
// the sink sees Seq 0, 1, 2 in that order.
func TestRunStreamRunsOneCollectorAtATime(t *testing.T) {
	sess, err := mperf.Open("x60", "dot", streamOpts(mperf.NewProgramCache())...)
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, peak atomic.Int32
	names := []string{"probe-a", "probe-b", "probe-c"}
	var cols []mperf.Collector
	for _, n := range names {
		cols = append(cols, probeCollector{name: n, inFlight: &inFlight, peak: &peak})
	}
	var mu sync.Mutex
	var results []mperf.CollectorResult
	if _, err := sess.RunStream(context.Background(), func(res mperf.CollectorResult) {
		mu.Lock()
		defer mu.Unlock()
		results = append(results, res)
	}, cols...); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak Collect calls in flight = %d, want 1", got)
	}
	if len(results) != len(names) {
		t.Fatalf("got %d streamed results, want %d", len(results), len(names))
	}
	for i, res := range results {
		if res.Seq != i || res.Collector != names[i] {
			t.Errorf("result %d is %s with seq %d, want %s with seq %d", i, res.Collector, res.Seq, names[i], i)
		}
	}
}

// TestRunStreamMergeIndependentOfOrder pins RunStream's merge rule:
// the merged profile does not depend on the order the collectors are
// declared in. Apart from the collector list and the compile
// accounting, stat then record equals record then stat, both with the
// default event set and with one that has no cycles or instructions,
// where stat reports no IPC and record's must survive in either order.
func TestRunStreamMergeIndependentOfOrder(t *testing.T) {
	for _, events := range [][]string{nil, {"branches", "branch-misses"}} {
		run := func(order ...string) (*mperf.Profile, []byte) {
			opts := streamOpts(mperf.NewProgramCache())
			if events != nil {
				opts = append(opts, mperf.WithStatEvents(events...))
			}
			sess, err := mperf.Open("x60", "dot", opts...)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := sess.Run(mperf.MustCollectors(order...)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := prof.Err(); err != nil {
				t.Fatalf("%v: %v", order, err)
			}
			prof.Collectors, prof.CompileStats = nil, nil
			data, err := json.Marshal(prof)
			if err != nil {
				t.Fatal(err)
			}
			return prof, data
		}
		prof, statFirst := run("stat", "record")
		_, recordFirst := run("record", "stat")
		if prof.IPC == 0 {
			t.Errorf("events %v: merged IPC is 0", events)
		}
		if !bytes.Equal(statFirst, recordFirst) {
			t.Errorf("events %v: merged profile depends on collector order\nstat,record: %s\nrecord,stat: %s",
				events, statFirst, recordFirst)
		}
	}
}
