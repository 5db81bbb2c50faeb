// Package faultinject is the chaos harness behind the failure-hardened
// serving stack: a registry of named fault points compiled permanently
// into the library and daemon, disarmed (and nearly free — one atomic
// load) in production, and armed by tests or the `mperfd serve -chaos`
// flag to force a specific failure on a specific path.
//
// Each point names a site and the failure it injects there:
//
//	collector.panic   panic inside a collector's Collect
//	collector.slow    delay a collector's completion (context-aware)
//	collector.fail    typed error from a collector
//	compile.fail      program build returns an error
//	count.panic       panic inside the roofline's counting phase, on
//	                  the goroutine it runs on beside the timed phase
//	worker.panic      panic inside a daemon worker, mid-job
//	queue.exhaust     the daemon queue reports full
//	conn.drop         the HTTP stream drops mid-response
//
// Sites decide what "armed" means; this package only answers "should I
// fail now" (Fire), "how long should I stall" (Sleep) and "what error
// do I return" (Error). Arm limits how often a point fires (Times) and
// how long it stalls (Delay); Reset disarms everything, which is how
// tests isolate from each other.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The fault points wired into pkg/mperf, pkg/mperfd and the roofline
// runner.
const (
	CollectorPanic = "collector.panic"
	CollectorSlow  = "collector.slow"
	CollectorFail  = "collector.fail"
	CompileFail    = "compile.fail"
	CountPanic     = "count.panic"
	WorkerPanic    = "worker.panic"
	QueueExhaust   = "queue.exhaust"
	ConnDrop       = "conn.drop"
)

// Points returns every fault point wired into the codebase, sorted.
func Points() []string {
	pts := []string{
		CollectorPanic, CollectorSlow, CollectorFail,
		CompileFail, CountPanic, WorkerPanic, QueueExhaust, ConnDrop,
	}
	sort.Strings(pts)
	return pts
}

// ErrInjected marks every error this package manufactures, so tests
// and callers can tell an injected failure from a real one with
// errors.Is.
var ErrInjected = errors.New("injected fault")

// defaultDelay is what Sleep stalls when a point is armed without an
// explicit Delay.
const defaultDelay = 100 * time.Millisecond

type fault struct {
	delay     time.Duration
	remaining int64 // firings left; < 0 means unlimited
}

var (
	mu     sync.Mutex
	faults = map[string]*fault{}
	fired  = map[string]uint64{}
	// armedCount gates the fast path: Enabled and Fire are one atomic
	// load when nothing is armed, so production traffic never takes mu.
	armedCount atomic.Int32
)

// Option configures an armed point.
type Option func(*fault)

// Times limits the point to n firings, after which it auto-disarms.
func Times(n int) Option {
	return func(f *fault) { f.remaining = int64(n) }
}

// Delay sets how long Sleep stalls at the point.
func Delay(d time.Duration) Option {
	return func(f *fault) { f.delay = d }
}

// Arm arms a fault point. Re-arming replaces the previous arming.
func Arm(point string, opts ...Option) {
	f := &fault{remaining: -1}
	for _, o := range opts {
		o(f)
	}
	mu.Lock()
	if _, ok := faults[point]; !ok {
		armedCount.Add(1)
	}
	faults[point] = f
	mu.Unlock()
}

// Disarm disarms a point; unknown points are a no-op.
func Disarm(point string) {
	mu.Lock()
	if _, ok := faults[point]; ok {
		delete(faults, point)
		armedCount.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point and zeroes the fire counts.
func Reset() {
	mu.Lock()
	armedCount.Add(int32(-len(faults)))
	faults = map[string]*fault{}
	fired = map[string]uint64{}
	mu.Unlock()
}

// Enabled reports whether any point is armed — the one-load fast path
// sites check before doing anything else.
func Enabled() bool { return armedCount.Load() > 0 }

// ArmedPoints returns the currently armed points, sorted.
func ArmedPoints() []string {
	mu.Lock()
	pts := make([]string, 0, len(faults))
	for p := range faults {
		pts = append(pts, p)
	}
	mu.Unlock()
	sort.Strings(pts)
	return pts
}

// FireCount returns how many times a point has fired since the last
// Reset.
func FireCount(point string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	return fired[point]
}

// take consumes one firing of point if armed, returning the fault.
func take(point string) (fault, bool) {
	if armedCount.Load() == 0 {
		return fault{}, false
	}
	mu.Lock()
	defer mu.Unlock()
	f, ok := faults[point]
	if !ok {
		return fault{}, false
	}
	if f.remaining == 0 {
		return fault{}, false
	}
	if f.remaining > 0 {
		f.remaining--
		if f.remaining == 0 {
			delete(faults, point)
			armedCount.Add(-1)
		}
	}
	fired[point]++
	return *f, true
}

// Fire consumes one firing of point and reports whether the site
// should inject its failure now.
func Fire(point string) bool {
	_, ok := take(point)
	return ok
}

// Error consumes one firing of point and returns its injected error,
// or nil when the point is not armed.
func Error(point string) error {
	if _, ok := take(point); !ok {
		return nil
	}
	return fmt.Errorf("faultinject: %s: %w", point, ErrInjected)
}

// Sleep consumes one firing of point and stalls for its armed delay
// (defaultDelay when unset), aborting early with the context's error
// if ctx dies first. An unarmed point returns immediately.
func Sleep(ctx context.Context, point string) error {
	f, ok := take(point)
	if !ok {
		return nil
	}
	d := f.delay
	if d <= 0 {
		d = defaultDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// ArmSpec arms a comma-separated list of point specs, the format of
// the daemon's -chaos flag:
//
//	point            arm, unlimited firings
//	point:N          arm for N firings
//	point=DELAY      arm with a Sleep delay (Go duration syntax)
//	point:N=DELAY    both
//
// Unknown point names are an error, so a typo cannot silently arm
// nothing.
func ArmSpec(spec string) error {
	known := map[string]bool{}
	for _, p := range Points() {
		known[p] = true
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		var opts []Option
		name := entry
		if i := strings.IndexByte(name, '='); i >= 0 {
			d, err := time.ParseDuration(name[i+1:])
			if err != nil {
				return fmt.Errorf("faultinject: bad delay in %q: %w", entry, err)
			}
			opts = append(opts, Delay(d))
			name = name[:i]
		}
		if i := strings.IndexByte(name, ':'); i >= 0 {
			n, err := strconv.Atoi(name[i+1:])
			if err != nil || n <= 0 {
				return fmt.Errorf("faultinject: bad count in %q", entry)
			}
			opts = append(opts, Times(n))
			name = name[:i]
		}
		if !known[name] {
			return fmt.Errorf("faultinject: unknown point %q (known: %s)",
				name, strings.Join(Points(), ", "))
		}
		Arm(name, opts...)
	}
	return nil
}
