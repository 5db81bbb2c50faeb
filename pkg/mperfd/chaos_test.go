package mperfd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
	"mperf/pkg/mperfd"
)

// armed arms one fault point for a subtest and guarantees a clean
// registry when it exits, so chaos subtests cannot leak faults into
// each other or into the ordinary test suite.
func armed(t *testing.T, point string, opts ...faultinject.Option) {
	t.Helper()
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(point, opts...)
}

// requireServed asserts the daemon still serves a clean, undegraded
// profile — the "the daemon survived" check every chaos subtest ends
// with, run with all faults disarmed.
func requireServed(t *testing.T, srv *mperfd.Server, cs *mperfd.ClientSession) {
	t.Helper()
	faultinject.Reset()
	prof, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if err != nil {
		t.Fatalf("daemon did not recover: %v", err)
	}
	if perr := prof.Err(); perr != nil {
		t.Fatalf("post-chaos profile degraded: %v", perr)
	}
}

// TestChaosCollectorPanic: a panicking collector degrades its own
// slice of the profile — typed, with the panic flagged and a stack
// captured — while the other collectors, the request, and the daemon
// all survive.
func TestChaosCollectorPanic(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	armed(t, faultinject.CollectorPanic, faultinject.Times(1))

	prof, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if err != nil {
		t.Fatalf("request failed outright, want a degraded profile: %v", err)
	}
	if len(prof.Errors) != 1 {
		t.Fatalf("profile errors = %+v, want exactly one (the panicked collector)", prof.Errors)
	}
	ce := prof.Errors[0]
	if !ce.Panic || ce.Stack == "" {
		t.Errorf("collector error %+v: want Panic=true with a captured stack", ce)
	}
	if !strings.Contains(ce.Message, "panic in collector") {
		t.Errorf("collector error message %q lacks panic provenance", ce.Message)
	}
	requireServed(t, srv, cs)
}

// TestChaosCollectorFail: an injected collector error is recorded as
// that collector's typed failure, not a panic and not a request
// error.
func TestChaosCollectorFail(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	armed(t, faultinject.CollectorFail, faultinject.Times(1))

	prof, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if err != nil {
		t.Fatalf("request failed outright, want a degraded profile: %v", err)
	}
	if len(prof.Errors) != 1 || prof.Errors[0].Panic {
		t.Fatalf("profile errors = %+v, want one non-panic failure", prof.Errors)
	}
	if !strings.Contains(prof.Errors[0].Message, "injected fault") {
		t.Errorf("error %q does not carry the injected cause", prof.Errors[0].Message)
	}
	requireServed(t, srv, cs)
}

// TestChaosDeadline: a stalled collector runs into the per-request
// deadline; the request fails with ErrDeadline (not a generic context
// error), the miss is counted, and the worker drains back to serving.
func TestChaosDeadline(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	armed(t, faultinject.CollectorSlow, faultinject.Delay(10*time.Second))

	req := smallDotRequest("x60")
	req.TimeoutMS = 100
	start := time.Now()
	_, err := srv.Profile(context.Background(), cs, req, nil)
	if !errors.Is(err, mperfd.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v; the injected 10s stall leaked through", elapsed)
	}
	if st := srv.Stats(); st.DeadlineMisses == 0 {
		t.Error("deadline miss not counted in stats")
	}
	requireServed(t, srv, cs)
}

// TestChaosDeadlineHTTP514 maps the same failure through the HTTP
// transport: nothing has streamed, so the client sees a clean 504.
func TestChaosDeadlineHTTP(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	armed(t, faultinject.CollectorSlow, faultinject.Delay(10*time.Second))

	resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
		strings.NewReader(`{"platform":"x60","workload":"dot","collectors":["stat"],"elems":2048,"timeout_ms":100}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %s, want 504", resp.Status)
	}
}

// TestChaosCompileFailOnce: an injected one-shot compile failure
// degrades the collectors that needed the program — typed, in the
// profile — and is NOT cached: the next request recompiles and
// serves clean. This pins the no-poisoning rule: transient build
// failures never stick in the program cache.
func TestChaosCompileFailOnce(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	armed(t, faultinject.CompileFail, faultinject.Times(1))

	prof, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if err != nil {
		t.Fatalf("request failed outright, want a degraded profile: %v", err)
	}
	if len(prof.Errors) == 0 {
		t.Fatal("profile has no errors; the injected compile failure vanished")
	}
	found := false
	for _, ce := range prof.Errors {
		if strings.Contains(ce.Message, "injected fault") {
			found = true
		}
	}
	if !found {
		t.Fatalf("profile errors %+v do not carry the injected compile failure", prof.Errors)
	}
	// requireServed re-runs the same request clean: the failed build
	// was not cached.
	requireServed(t, srv, cs)
}

// TestChaosWorkerPanic: a panic inside the worker itself — outside
// the session's collector containment — is recovered into a typed
// PanicError; the single worker survives and serves the next request.
func TestChaosWorkerPanic(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	armed(t, faultinject.WorkerPanic, faultinject.Times(1))

	_, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if !mperf.IsPanic(err) {
		t.Fatalf("err = %v, want a typed PanicError", err)
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Errorf("stats panics = %d, want 1", st.Panics)
	}
	h := srv.Health()
	if h.Status != "degraded" || !h.RecentPanic {
		t.Errorf("health = %+v, want degraded with recent_panic", h)
	}
	// The sole worker must have survived to serve this.
	requireServed(t, srv, cs)
}

// TestChaosQueueExhaust: injected queue exhaustion surfaces as the
// backpressure contract — 429 with a real Retry-After header — and
// clears when the fault does.
func TestChaosQueueExhaust(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	armed(t, faultinject.QueueExhaust, faultinject.Times(1))

	resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
		strings.NewReader(`{"platform":"x60","workload":"dot","collectors":["stat"],"elems":2048}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive backoff", ra)
	}
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	requireServed(t, srv, cs)
}

// TestChaosConnDrop: the HTTP connection is severed mid-stream. The
// client observes a truncated stream with no terminal frame; the
// daemon's worker finishes into the void and keeps serving.
func TestChaosConnDrop(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	armed(t, faultinject.ConnDrop, faultinject.Times(1))

	resp, err := http.Post(ts.URL+"/v1/profile", "application/json",
		strings.NewReader(`{"platform":"x60","workload":"dot","collectors":["stat","topdown"],"elems":2048}`))
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	sawTerminal := false
	for _, line := range bytes.Split(body, []byte("\n")) {
		var f mperfd.Frame
		if json.Unmarshal(line, &f) == nil && (f.Type == "profile" || f.Type == "error") {
			sawTerminal = true
		}
	}
	if readErr == nil && sawTerminal {
		t.Fatal("stream completed cleanly; the connection drop never fired")
	}
	cs := srv.OpenSession("chaos")
	defer srv.CloseSession(cs.ID())
	requireServed(t, srv, cs)
}

// TestChaosStdioOversizedFrame: a frame past MaxStdioFrame gets a
// typed frame_too_large error and the session keeps serving the
// well-formed requests around it — one hostile line cannot take down
// a connection.
func TestChaosStdioOversizedFrame(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})

	in := new(bytes.Buffer)
	in.WriteString(`{"id":"a","method":"ping"}` + "\n")
	in.WriteString(strings.Repeat("x", 2*mperfd.MaxStdioFrame) + "\n")
	in.WriteString(`{"id":"b","method":"profile","profile":{"platform":"x60","workload":"dot","collectors":["stat"],"elems":2048}}` + "\n")
	out := new(bytes.Buffer)
	if err := srv.ServeStdio(context.Background(), in, out); err != nil {
		t.Fatal(err)
	}

	var tooLarge, pong, served bool
	for _, f := range readFrames(t, bytes.NewReader(out.Bytes())) {
		switch {
		case f.Code == "frame_too_large":
			tooLarge = true
		case f.Type == "pong":
			pong = true
		case f.ID == "b" && f.Type == "profile":
			served = true
		}
	}
	if !tooLarge {
		t.Error("oversized frame did not get a frame_too_large error frame")
	}
	if !pong || !served {
		t.Errorf("session did not survive the oversized frame (pong=%v served=%v)", pong, served)
	}
}

// TestChaosStdioWorkerPanic: a contained worker panic reaches the
// stdio client as that request's typed error frame (code=panic) and
// the connection serves the next request normally.
func TestChaosStdioWorkerPanic(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 1, QueueDepth: 4})
	armed(t, faultinject.WorkerPanic, faultinject.Times(1))

	profLine := `{"id":"%s","method":"profile","profile":{"platform":"x60","workload":"dot","collectors":["stat"],"elems":2048}}`
	// Two sessions so the requests are strictly ordered: the panic
	// must be consumed by the first request, not raced by the second.
	for i, want := range []struct{ id, typ, code string }{
		{"p1", "error", "panic"},
		{"p2", "profile", ""},
	} {
		in := strings.NewReader(strings.ReplaceAll(profLine, "%s", want.id) + "\n")
		out := new(bytes.Buffer)
		if err := srv.ServeStdio(context.Background(), in, out); err != nil {
			t.Fatal(err)
		}
		frames := readFrames(t, bytes.NewReader(out.Bytes()))
		last := frames[len(frames)-1]
		if last.Type != want.typ || last.Code != want.code {
			t.Fatalf("request %d terminal frame %+v, want type=%s code=%q", i, last, want.typ, want.code)
		}
	}
}

// TestChaosRateLimit: a session over its request rate gets a typed
// RateLimitError carrying its own refill time, and recovers once the
// bucket does.
func TestChaosRateLimit(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8, SessionRPS: 0.5})
	cs := srv.OpenSession("limited")
	defer srv.CloseSession(cs.ID())

	if _, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil); err != nil {
		t.Fatalf("first request within burst failed: %v", err)
	}
	_, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	var rle *mperfd.RateLimitError
	if !errors.As(err, &rle) || !errors.Is(err, mperfd.ErrRateLimited) {
		t.Fatalf("err = %v, want a RateLimitError", err)
	}
	if rle.RetryAfter <= 0 || rle.RetryAfter > 4*time.Second {
		t.Errorf("RetryAfter = %v, want a positive refill estimate", rle.RetryAfter)
	}
}

// TestChaosSessionQuota: the in-flight quota rejects the excess
// request with ErrSessionQuota while the admitted one completes.
func TestChaosSessionQuota(t *testing.T) {
	drainTokens(blockState.started)
	drainTokens(blockState.released)
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8, SessionMaxInFlight: 1})
	cs := srv.OpenSession("quota")
	defer srv.CloseSession(cs.ID())

	done := make(chan error, 1)
	go func() {
		_, err := srv.Profile(context.Background(), cs, blockRequest(), nil)
		done <- err
	}()
	<-blockState.started

	_, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil)
	if !errors.Is(err, mperfd.ErrSessionQuota) {
		t.Fatalf("err = %v, want ErrSessionQuota", err)
	}
	unblockAll()
	if err := <-done; err != nil {
		t.Errorf("admitted request failed: %v", err)
	}
	<-blockState.released
}

// TestChaosNoGoroutineLeak drives every injectable failure back to
// back and asserts the goroutine count settles to its pre-chaos
// baseline: contained failures must not strand workers, sessions, or
// request contexts.
func TestChaosNoGoroutineLeak(t *testing.T) {
	srv := newTestServer(t, mperfd.Config{Workers: 2, QueueDepth: 8})
	cs := srv.OpenSession("leakcheck")
	defer srv.CloseSession(cs.ID())

	// Warm up (compile, pools) before taking the baseline.
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	if _, err := srv.Profile(context.Background(), cs, smallDotRequest("x60"), nil); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	for _, point := range []string{
		faultinject.CollectorPanic, faultinject.CollectorFail,
		faultinject.CompileFail, faultinject.WorkerPanic, faultinject.QueueExhaust,
	} {
		faultinject.Reset()
		faultinject.Arm(point, faultinject.Times(1))
		req := smallDotRequest("x60")
		req.TimeoutMS = 5000
		_, _ = srv.Profile(context.Background(), cs, req, nil)
	}
	faultinject.Reset()

	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}
