package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
	"mperf/pkg/mperfd/client"
)

// Open-loop shape of daemon-serve. The rate is about a fifth of the
// saturation capacity of a quiet 2-core host, and under a third of it
// when neighbours slow the host by a third: at a fixed rate, latency
// grows steeply with utilization, so a rate near capacity would turn
// every change in host speed into a change in the tail. It still gives
// each of the 72 keys about 28 requests a run, enough for a steady
// per-key latency_ms. sloMS is the latency limit a request must meet.
const (
	openRate    = 150.0 // requests per second
	sloMS       = 50.0
	daemonConns = 2
)

// daemon serves the catalog from an in-process mperfd behind net/http on
// a loopback port, as a resident daemon would, and drives it through the
// HTTP client.
type daemon struct {
	*env
	cache  *mperf.ProgramCache
	srv    *mperfd.Server
	hs     *http.Server
	served chan struct{}
	cl     *client.Client
}

func (w *daemon) request(k int) mperfd.ProfileRequest {
	key := w.keys[k]
	return mperfd.ProfileRequest{Platform: key.Platform, Workload: key.Workload, Collectors: key.Collectors,
		Sizing: mperfd.Sizing{Elems: key.Elems}}
}

// setup starts a fresh server and serves one warm wave (every key once,
// over both connections), which compiles the catalog.
func (w *daemon) setup() (time.Duration, error) {
	w.teardown()
	start := time.Now()
	w.cache = mperf.NewProgramCache()
	w.srv = mperfd.New(mperfd.Config{Workers: 2, QueueDepth: 64, Cache: w.cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	w.cl = client.New(ln.Addr().String())
	// A refused request is a failed request here, not one to retry.
	w.cl.Retry = client.RetryPolicy{MaxAttempts: 1}

	var next atomic.Int64
	errs := make([]error, daemonConns)
	var wg sync.WaitGroup
	for c := 0; c < daemonConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < len(w.keys) && errs[c] == nil; k = int(next.Add(1) - 1) {
				_, errs[c] = w.cl.Profile(context.Background(), w.request(k), nil)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

func (w *daemon) teardown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx)
	<-w.served
	_ = w.srv.Shutdown(ctx)
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	w.srv = nil
}

// loop runs the open phase for the first two thirds of d, then the
// closed saturation phase for the rest. Latencies come from the open
// phase, throughput from the saturation phase.
func (w *daemon) loop(d time.Duration, st *loopStats) error {
	seq := newKeySequence(w.seed, len(w.keys))
	var seqMu sync.Mutex
	keyAt := func(i int) int {
		seqMu.Lock()
		defer seqMu.Unlock()
		return seq.at(i)
	}
	rejected0 := w.srv.Stats().Rejected

	satDur := d / 3
	openDur := d - satDur
	if w.quick {
		openDur = time.Duration(float64(len(w.keys)) / openRate * float64(time.Second))
	}
	sched := poissonSchedule(w.seed, openRate, openDur)
	w.openPhase(sched, keyAt, st)
	w.saturate(satDur, len(sched), keyAt, st)

	st.rejected = w.srv.Stats().Rejected - rejected0
	return nil
}

type openReq struct {
	i, k       int
	due, ready time.Time
}

func (w *daemon) openPhase(sched []time.Duration, keyAt func(int) int, st *loopStats) {
	reqs := make(chan openReq)
	var wg sync.WaitGroup
	for lane := 0; lane < daemonConns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range reqs {
				sent := time.Now()
				root := w.tr.begin("op", noSpan, r.i, lane)
				w.tr.retime(root, r.due)
				w.tr.record("load.wait", r.due, sent, root, r.i, lane)
				var prof *mperf.Profile
				var err error
				w.call("client.Profile", root, r.i, lane, func() { prof, err = w.cl.Profile(context.Background(), w.request(r.k), nil) })
				lat := ms(time.Since(r.due))
				w.tr.end(root)
				ok := w.finish(st, r.k, prof, nil, err)
				st.mu.Lock()
				st.latMS = append(st.latMS, lat)
				st.latKey = append(st.latKey, r.k)
				st.connWaitMS = append(st.connWaitMS, ms(sent.Sub(r.ready)))
				st.openOps++
				if !ok || lat > sloMS {
					st.sloMiss++
				}
				st.mu.Unlock()
			}
		}()
	}
	t0 := time.Now()
	for i, off := range sched {
		due := t0.Add(off)
		time.Sleep(time.Until(due))
		ready := time.Now()
		if w.tr != nil {
			depth := float64(w.srv.Stats().QueueDepth)
			st.mu.Lock()
			st.queueDepth = append(st.queueDepth, depth)
			st.mu.Unlock()
		}
		st.mu.Lock()
		st.lagMS = append(st.lagMS, ms(ready.Sub(due)))
		st.mu.Unlock()
		reqs <- openReq{i: i, k: keyAt(i), due: due, ready: ready}
	}
	close(reqs)
	wg.Wait()
}

// saturate keeps both connections busy until d has passed and at least
// one round of the catalog is done; its completions per second are the
// daemon's capacity.
func (w *daemon) saturate(d time.Duration, base int, keyAt func(int) int, st *loopStats) {
	var next atomic.Int64
	var mu sync.Mutex
	var finished []time.Time
	var wg sync.WaitGroup
	start := time.Now()
	for lane := 0; lane < daemonConns; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if n >= len(w.keys) && time.Since(start) >= d {
					return
				}
				i, k := base+n, keyAt(base+n)
				root := w.tr.begin("op", noSpan, i, lane)
				var prof *mperf.Profile
				var err error
				w.call("client.Profile", root, i, lane, func() { prof, err = w.cl.Profile(context.Background(), w.request(k), nil) })
				w.tr.end(root)
				if w.finish(st, k, prof, nil, err) {
					mu.Lock()
					finished = append(finished, time.Now())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// One throughput sample per catalog's worth of completions.
	sort.Slice(finished, func(i, j int) bool { return finished[i].Before(finished[j]) })
	n, prev := len(w.keys), start
	for c := n; c <= len(finished); c += n {
		st.addRound(0, n, finished[c-1].Sub(prev))
		prev = finished[c-1]
	}
}
