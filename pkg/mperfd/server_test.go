package mperfd_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mperf/internal/workloads"
	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
)

// newTestServer builds a daemon with a private cache sized for tests.
func newTestServer(t *testing.T, cfg mperfd.Config) *mperfd.Server {
	t.Helper()
	if cfg.Cache == nil {
		cfg.Cache = mperf.NewProgramCache()
	}
	srv := mperfd.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

func smallDotRequest(platform string) mperfd.ProfileRequest {
	return mperfd.ProfileRequest{
		Platform:   platform,
		Workload:   "dot",
		Collectors: []string{"stat", "topdown"},
		Sizing:     mperfd.Sizing{Elems: 2048},
	}
}

// readFrames consumes an NDJSON stream into frames.
func readFrames(t *testing.T, r io.Reader) []mperfd.Frame {
	t.Helper()
	var frames []mperfd.Frame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f mperfd.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return frames
}

// inProcessProfile is the reference: the same request run through a
// plain cold session, CompileStats normalized away (the daemon serves
// from a warm cache, which is the one permitted difference).
func inProcessProfile(t *testing.T, req mperfd.ProfileRequest) []byte {
	t.Helper()
	sess, err := mperf.Open(req.Platform, req.Workload,
		mperf.WithConfig(req.Sizing), mperf.WithProgramCache(mperf.NewProgramCache()))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors(req.Collectors...)...)
	if err != nil {
		t.Fatal(err)
	}
	return marshalNoCompileStats(t, prof)
}

func marshalNoCompileStats(t *testing.T, prof *mperf.Profile) []byte {
	t.Helper()
	clone := *prof
	clone.CompileStats = nil
	data, err := json.Marshal(&clone)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHTTPProfileStream pins the HTTP streaming contract: collector
// frames in declared order (contiguous seq, one per collector),
// then exactly one terminal profile frame whose content is
// bit-identical to the in-process run of the same request.
func TestHTTPProfileStream(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := smallDotRequest("x60")
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	frames := readFrames(t, resp.Body)
	if len(frames) != 3 {
		t.Fatalf("got %d frames, want 2 collector + 1 profile: %+v", len(frames), frames)
	}
	seen := map[string]bool{}
	for i, f := range frames[:2] {
		if f.Type != "collector" || f.Result == nil {
			t.Fatalf("frame %d: %+v, want a collector result", i, f)
		}
		if f.Result.Seq != i {
			t.Errorf("frame %d has seq %d, want declared order", i, f.Result.Seq)
		}
		seen[f.Result.Collector] = true
	}
	if !seen["stat"] || !seen["topdown"] {
		t.Errorf("streamed collectors %v, want stat and topdown", seen)
	}
	final := frames[2]
	if final.Type != "profile" || final.Profile == nil {
		t.Fatalf("terminal frame: %+v, want a profile", final)
	}
	served := marshalNoCompileStats(t, final.Profile)
	want := inProcessProfile(t, req)
	if !bytes.Equal(served, want) {
		t.Errorf("served profile diverged from in-process run:\nserved: %s\nlocal:  %s", served, want)
	}
}

// TestServedRooflineIsHierarchical pins that a daemon-served roofline
// profile carries the hierarchical L1/L2/DRAM view and is bit-identical
// to the in-process run of the same request: the request sizing has no
// knob that could drop it.
func TestServedRooflineIsHierarchical(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := mperfd.ProfileRequest{
		Platform:   "x60",
		Workload:   "stream_add",
		Collectors: []string{"roofline"},
		Sizing:     mperfd.Sizing{Elems: 2048},
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, resp.Body)
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	final := frames[len(frames)-1]
	if final.Type != "profile" || final.Profile == nil {
		t.Fatalf("terminal frame: %+v, want a profile", final)
	}
	if err := final.Profile.Err(); err != nil {
		t.Fatalf("served profile degraded: %v", err)
	}
	r := final.Profile.Roofline
	if r == nil || r.Hierarchical == nil || len(r.Hierarchical.Ceilings) != 3 || len(r.Hierarchical.Points) == 0 {
		t.Fatalf("served roofline lacks the hierarchical view: %+v", r)
	}
	served := marshalNoCompileStats(t, final.Profile)
	if want := inProcessProfile(t, req); !bytes.Equal(served, want) {
		t.Errorf("served roofline diverged from in-process run:\nserved: %s\nlocal:  %s", served, want)
	}
}

// TestHTTPValidation: name typos are clean 400s, before any streaming.
func TestHTTPValidation(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"platform":"nope","workload":"dot"}`,
		`{"platform":"x60","workload":"nope"}`,
		`{"platform":"x60","workload":"dot","collectors":["nope"]}`,
		`{"platform":"x60","workload":"matmul","matmul_n":100,"matmul_tile":7}`,
		`{`,
	} {
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %s, want 400", body, resp.Status)
		}
	}
}

// TestServedSqliteSizing: a request's "sqlite" key sizes the served
// workload. At the paper's Table 2 size the served profile is
// byte-identical to an in-process session given WithSqliteConfig, not
// the default 300×4 sizing.
func TestServedSqliteSizing(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"platform":"x60","workload":"sqlite","collectors":["stat","topdown"],` +
		`"sqlite":{"prog_len":64,"rows":150,"queries":3,"cell_area":4096,"text_area":4096,"pat_len":6}}`
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readFrames(t, resp.Body)
	final := frames[len(frames)-1]
	if final.Type != "profile" || final.Profile == nil {
		t.Fatalf("terminal frame: %+v, want a profile", final)
	}

	table2 := workloads.DefaultSqliteConfig()
	table2.Rows, table2.Queries = 150, 3
	sess, err := mperf.Open("x60", "sqlite", mperf.WithSqliteConfig(table2),
		mperf.WithProgramCache(mperf.NewProgramCache()))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := sess.Run(mperf.MustCollectors("stat", "topdown")...)
	if err != nil {
		t.Fatal(err)
	}
	if served, want := marshalNoCompileStats(t, final.Profile), marshalNoCompileStats(t, prof); !bytes.Equal(served, want) {
		t.Errorf("served sqlite profile diverged from the in-process Table 2 run:\nserved: %s\nlocal:  %s", served, want)
	}
}

// TestSizingValidatedBeforeQueue: bad sizing in either request kind is
// refused before it reaches the queue — the session never submits —
// and over HTTP it is a 400 like a name typo.
func TestSizingValidatedBeforeQueue(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cs := srv.OpenSession("bad-sizing")
	defer srv.CloseSession(cs.ID())
	for _, bad := range []mperfd.Sizing{
		{Elems: -1},
		{MemsetWords: -512},
		{Sqlite: &workloads.SqliteConfig{Rows: 150, Queries: 3}},
	} {
		preq := mperfd.ProfileRequest{Platform: "x60", Workload: "dot", Collectors: []string{"stat"}, Sizing: bad}
		mreq := mperfd.MatrixRequest{Platforms: []string{"x60"}, Workloads: []string{"dot"}, Collectors: []string{"stat"}, Sizing: bad}
		if _, err := srv.Profile(context.Background(), cs, preq, nil); err == nil {
			t.Errorf("profile with sizing %+v accepted", bad)
		}
		if _, err := srv.Matrix(context.Background(), cs, mreq); err == nil {
			t.Errorf("matrix with sizing %+v accepted", bad)
		}
		for route, req := range map[string]any{"/v1/profile": preq, "/v1/matrix": mreq} {
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with sizing %+v: status %s, want 400", route, bad, resp.Status)
			}
		}
	}
	// A size the workload cannot run is refused the same way: triad's
	// loop runs in steps of 16.
	preq := mperfd.ProfileRequest{Platform: "x60", Workload: "triad", Collectors: []string{"stat"},
		Sizing: mperfd.Sizing{Elems: 1001}}
	if _, err := srv.Profile(context.Background(), cs, preq, nil); err == nil || !strings.Contains(err.Error(), "16") {
		t.Errorf("triad at 1001 elements: err = %v, want a multiple-of-16 refusal", err)
	}
	body, _ := json.Marshal(preq)
	resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("triad at 1001 elements: status %s, want 400", resp.Status)
	}
	// A matrix is resolved at its sizing too: triad at 1001 elements is
	// a 400 on /v1/matrix, not a queued sweep whose cell fails.
	mreq := mperfd.MatrixRequest{Platforms: []string{"x60"}, Workloads: []string{"triad"}, Collectors: []string{"stat"},
		Sizing: mperfd.Sizing{Elems: 1001}}
	if _, err := srv.Matrix(context.Background(), cs, mreq); err == nil || !strings.Contains(err.Error(), "16") {
		t.Errorf("matrix of triad at 1001 elements: err = %v, want a multiple-of-16 refusal", err)
	}
	body, _ = json.Marshal(mreq)
	resp, err = http.Post(ts.URL+"/v1/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("matrix of triad at 1001 elements: status %s, want 400", resp.Status)
	}
	if n := cs.Requests(); n != 0 {
		t.Errorf("session submitted %d requests, want 0", n)
	}
	if st := srv.Stats(); st.Served != 0 || st.Rejected != 0 {
		t.Errorf("bad sizing reached the queue: %d served, %d rejected", st.Served, st.Rejected)
	}
}

// blockCollector is a test collector that instantiates a machine,
// parks until released, then returns the machine to the pool — the
// instrument for the backpressure and cancellation tests.
type blockCollector struct{}

var blockState struct {
	mu       sync.Mutex
	started  chan string // receives a token per Collect entry
	release  chan struct{}
	released chan string // receives a token per machine release
}

func init() {
	blockState.started = make(chan string, 64)
	blockState.release = make(chan struct{})
	blockState.released = make(chan string, 64)
	if err := mperf.RegisterCollector("testblock", func() mperf.Collector { return blockCollector{} }); err != nil {
		panic(err)
	}
}

func (blockCollector) Name() string { return "testblock" }

func (blockCollector) Collect(s *mperf.Session, p *mperf.Profile) error {
	m, err := s.NewMachine()
	if err != nil {
		return err
	}
	// Capture the release channel before announcing the start: once
	// the token is out, unblockAll may swap the channel, and a collector
	// that read it afterwards would wait on the fresh one forever.
	blockState.mu.Lock()
	release := blockState.release
	blockState.mu.Unlock()
	blockState.started <- "x"
	<-release
	m.Release()
	blockState.released <- "x"
	return nil
}

func blockRequest() mperfd.ProfileRequest {
	return mperfd.ProfileRequest{
		Platform:   "x60",
		Workload:   "dot",
		Collectors: []string{"testblock"},
		Sizing:     mperfd.Sizing{Elems: 64},
	}
}

func unblockAll() {
	blockState.mu.Lock()
	close(blockState.release)
	blockState.release = make(chan struct{})
	blockState.mu.Unlock()
}

func drainTokens(c chan string) {
	for {
		select {
		case <-c:
		default:
			return
		}
	}
}

// TestQueueBackpressure: with one worker busy and the queue full, the
// next request is rejected with 429 instead of growing server state,
// and succeeds again once the queue drains.
func TestQueueBackpressure(t *testing.T) {
	drainTokens(blockState.started)
	drainTokens(blockState.released)
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func() *http.Response {
		body, _ := json.Marshal(blockRequest())
		resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	var wg sync.WaitGroup
	results := make(chan int, 2)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post()
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	// First request occupies the worker (its collector parks)...
	launch()
	<-blockState.started
	// ...then the second sits in the single queue slot.
	launch()
	waitFor(t, func() bool { return srv.Stats().QueueDepth == 1 })

	resp := post()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After")
	}
	if st := srv.Stats(); st.Rejected == 0 {
		t.Errorf("stats count %d rejected, want > 0", st.Rejected)
	}

	unblockAll()
	<-blockState.started // queued request reaches the worker
	unblockAll()
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Errorf("blocked request finished with %d, want 200", code)
		}
	}
	<-blockState.released
	<-blockState.released

	// With the queue empty again, requests are admitted. (post blocks
	// until the streamed response completes, so it runs off-thread.)
	code := make(chan int, 1)
	go func() {
		resp := post()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-blockState.started
	unblockAll()
	if c := <-code; c != http.StatusOK {
		t.Errorf("post-drain request got %d, want 200", c)
	}
	<-blockState.released
}

// TestCancelledRequestReleasesMachines: a client that goes away
// mid-request does not leak the request's machines — the worker
// drains the collector, which returns its machine to the program
// pool, and the server settles back to idle.
func TestCancelledRequestReleasesMachines(t *testing.T) {
	drainTokens(blockState.started)
	drainTokens(blockState.released)
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(blockRequest())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/profile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		errc <- err
	}()

	<-blockState.started // the collector holds a machine now
	cancel()             // client walks away mid-request
	if err := <-errc; err == nil {
		t.Error("cancelled request returned no error to the client")
	}

	// The worker is still draining the collector; let it finish and
	// verify the machine went back to the pool.
	unblockAll()
	select {
	case <-blockState.released:
	case <-time.After(10 * time.Second):
		t.Fatal("machine was not released after client cancellation")
	}
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.Active == 0 && st.QueueDepth == 0 && st.SessionsOpen == 0
	})
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

// TestSessionLifecycle: explicit sessions bind requests, count them,
// and closing a session cancels its in-flight requests.
func TestSessionLifecycle(t *testing.T) {
	drainTokens(blockState.started)
	drainTokens(blockState.released)
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"name":"lifecycle"}`))
	if err != nil {
		t.Fatal(err)
	}
	var opened struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if opened.ID == "" {
		t.Fatal("no session id")
	}
	if st := srv.Stats(); st.SessionsOpen != 1 {
		t.Fatalf("sessions open = %d, want 1", st.SessionsOpen)
	}

	// A request bound to the session parks in its collector...
	body, _ := json.Marshal(blockRequest())
	hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile", bytes.NewReader(body))
	hreq.Header.Set(mperfd.SessionHeader, opened.ID)
	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp
	}()
	<-blockState.started

	// ...and closing the session cancels it server-side.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+opened.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	<-done
	unblockAll()
	select {
	case <-blockState.released:
	case <-time.After(10 * time.Second):
		t.Fatal("machine not released after session close")
	}
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.SessionsOpen == 0 && st.Active == 0
	})

	// Unknown session IDs are rejected.
	hreq2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile", bytes.NewReader(body))
	hreq2.Header.Set(mperfd.SessionHeader, "s999999")
	resp2, err := http.DefaultClient.Do(hreq2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session got %d, want 404", resp2.StatusCode)
	}
}

// TestStdioTransport drives the NDJSON stdio framing: ping, listings,
// a streamed profile with id correlation, and bad-line handling.
func TestStdioTransport(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})

	in := new(bytes.Buffer)
	reqs := []string{
		`{"id":"a","method":"ping"}`,
		`not json`,
		`{"id":"b","method":"workloads"}`,
		`{"id":"c","method":"profile","profile":{"platform":"x60","workload":"dot","collectors":["stat"],"elems":2048}}`,
		`{"id":"d","method":"bogus"}`,
	}
	in.WriteString(strings.Join(reqs, "\n") + "\n")
	out := new(bytes.Buffer)
	if err := srv.ServeStdio(context.Background(), in, out); err != nil {
		t.Fatal(err)
	}

	byID := map[string][]mperfd.Frame{}
	for _, f := range readFrames(t, bytes.NewReader(out.Bytes())) {
		byID[f.ID] = append(byID[f.ID], f)
	}
	if got := byID["a"]; len(got) != 1 || got[0].Type != "pong" {
		t.Errorf("ping: %+v", got)
	}
	if got := byID[""]; len(got) != 1 || got[0].Type != "error" {
		t.Errorf("bad line: %+v", got)
	}
	if got := byID["b"]; len(got) != 1 || got[0].Type != "workloads" || len(got[0].Workloads) == 0 {
		t.Errorf("workloads: %+v", got)
	}
	if got := byID["d"]; len(got) != 1 || got[0].Type != "error" {
		t.Errorf("bogus method: %+v", got)
	}
	prof := byID["c"]
	if len(prof) != 2 || prof[0].Type != "collector" || prof[1].Type != "profile" {
		t.Fatalf("profile frames: %+v", prof)
	}
	if prof[1].Profile.Events == nil {
		t.Error("stdio-served profile has no events")
	}
	// The connection's session is gone once ServeStdio returns.
	if st := srv.Stats(); st.SessionsOpen != 0 {
		t.Errorf("sessions open after stdio EOF = %d, want 0", st.SessionsOpen)
	}
}

// TestShutdownDrains: Shutdown completes queued work, then refuses
// new requests with ErrDraining.
func TestShutdownDrains(t *testing.T) {
	drainTokens(blockState.started)
	drainTokens(blockState.released)
	cache := mperf.NewProgramCache()
	srv := mperfd.New(mperfd.Config{Workers: 1, QueueDepth: 4, Cache: cache})

	cs := srv.OpenSession("drain-test")
	var wg sync.WaitGroup
	wg.Add(1)
	var prof *mperf.Profile
	var perr error
	go func() {
		defer wg.Done()
		prof, perr = srv.Profile(context.Background(), cs, blockRequest(), nil)
	}()
	<-blockState.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request...
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned (%v) before the in-flight request finished", err)
	case <-time.After(200 * time.Millisecond):
	}
	// ...while new work is already refused.
	if _, err := srv.Profile(context.Background(), cs, blockRequest(), nil); err != mperfd.ErrDraining {
		t.Errorf("enqueue during drain: %v, want ErrDraining", err)
	}
	unblockAll()
	wg.Wait()
	if perr != nil || prof == nil {
		t.Errorf("drained request failed: %v", perr)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	<-blockState.released
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached within 10s")
}

var _ = fmt.Sprintf // keep fmt imported for debugging edits
