package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, including its extrapolation for very short inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
}

// The quiet estimators read each kind of round and each key on its own,
// so a cheap kind or key does not stand in for an expensive one.
func TestQuietEstimators(t *testing.T) {
	st := &loopStats{}
	for _, r := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		st.addRound(0, 3, time.Duration(3/r*float64(time.Second)))
	}
	for range 3 {
		st.addRound(5, 1, time.Second/4)
	}
	// Kind 0's 90th-percentile rate is 9.1, kind 5's is 4: one round of
	// each is 4 ops in 3/9.1 + 1/4 seconds.
	if got, want := st.quietOpsPerSecond(), 4/(3/9.1+0.25); math.Abs(got-want) > 1e-6 {
		t.Errorf("quietOpsPerSecond = %v, want %v", got, want)
	}

	st.latMS = []float64{10, 1, 50, 9, 2, 8, 3, 7, 4, 6, 5}
	st.latKey = []int{0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 0}
	// Key 0's 10th percentile is 1.9, key 7's only sample is 50.
	if got := st.quietLatencyMS(); !near(got, (1.9+50)/2) {
		t.Errorf("quietLatencyMS = %v, want %v", got, (1.9+50)/2)
	}
	if got := (&loopStats{}).quietOpsPerSecond(); got != 0 {
		t.Errorf("quietOpsPerSecond of no rounds = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower"}
	higher := metricDef{Name: "ops_per_s", Better: "higher"}
	steady := []float64{100, 100.5, 99.5, 100.2, 99.8}
	for _, c := range []struct {
		def          metricDef
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{110, 110.5, 109.5, 110.2, 109.8}, "WORSE"},
		{higher, steady, []float64{90, 90.5, 89.5, 90.2, 89.8}, "WORSE"},
		{lower, steady, []float64{100.1, 100.4, 99.6, 100.3, 99.9}, "unchanged"},
		{lower, steady, []float64{80, 80.5, 79.5, 80.2, 79.8}, "better"},
		{lower, []float64{60, 140, 100, 80, 120}, []float64{101, 102, 99, 100, 98}, "unresolved"},
	} {
		if got, _ := verdict(c.def, c.base, c.change, 0.05); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.base, c.change, got, c.want)
		}
	}
}
