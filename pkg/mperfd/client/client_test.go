package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
	"mperf/pkg/mperfd"
	"mperf/pkg/mperfd/client"
)

// fastRetry keeps the backoff loop test-speed.
var fastRetry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

// newClient points a retry-tuned client at a test server.
func newClient(ts *httptest.Server) *client.Client {
	c := client.New(ts.URL)
	c.Retry = fastRetry
	return c
}

func dotRequest() mperfd.ProfileRequest {
	return mperfd.ProfileRequest{
		Platform:   "x60",
		Workload:   "dot",
		Collectors: []string{"stat", "topdown"},
		Sizing:     mperfd.Sizing{Elems: 2048},
	}
}

// TestRetryPolicyHonorsRetryAfter pins the precedence rule: a
// server-directed Retry-After replaces the computed backoff verbatim,
// and without one the backoff stays within the jittered envelope.
func TestRetryPolicyHonorsRetryAfter(t *testing.T) {
	p := client.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 3 * time.Second}
	if got := p.Delay(2, 7*time.Second); got != 7*time.Second {
		t.Fatalf("Retry-After not honored: got %v, want 7s", got)
	}
	for attempt := 0; attempt < 3; attempt++ {
		base := p.BaseDelay << uint(attempt)
		got := p.Delay(attempt, 0)
		if got < base*3/4 || got > base*5/4 {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, got, base*3/4, base*5/4)
		}
	}
	if got := p.Delay(30, 0); got > p.MaxDelay*5/4 {
		t.Errorf("overflow attempt: backoff %v exceeds cap %v", got, p.MaxDelay)
	}
}

// TestProfileRetriesBusy drives the full retry loop: two 429
// rejections (with a zero Retry-After so the test stays fast), then a
// served profile. The client must transparently retry and succeed.
func TestProfileRetriesBusy(t *testing.T) {
	var calls atomic.Int64
	want := &mperf.Profile{Workload: "dot"}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = mperf.WriteJSONLine(w, mperfd.Frame{Type: "profile", Profile: want})
	}))
	defer ts.Close()

	prof, err := newClient(ts).Profile(context.Background(), dotRequest(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Workload != "dot" {
		t.Fatalf("profile workload %q, want dot", prof.Workload)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

// TestProfileBusyExhaustsTyped: a daemon that never admits the
// request yields ErrBusy once the attempt budget runs out, so callers
// can errors.Is on it.
func TestProfileBusyExhaustsTyped(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	_, err := newClient(ts).Profile(context.Background(), dotRequest(), nil)
	if !errors.Is(err, client.ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if got := calls.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Fatalf("server saw %d attempts, want %d", got, fastRetry.MaxAttempts)
	}
}

// TestProfileUnavailableTyped maps 503 to ErrUnavailable after the
// retry budget.
func TestProfileUnavailableTyped(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	_, err := newClient(ts).Profile(context.Background(), dotRequest(), nil)
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

// TestMatrixRetriesBusy drives the non-streaming retry path: one 429
// carrying Retry-After, then a served sweep. The client must wait the
// server-directed second (far above fastRetry's backoff), retry once,
// and decode the response.
func TestMatrixRetriesBusy(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/matrix" {
			t.Errorf("request to %s, want /v1/matrix", r.URL.Path)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(mperfd.MatrixResponse{
			Cells: []mperf.MatrixCell{{Platform: "x60", Workload: "dot"}},
		})
	}))
	defer ts.Close()

	start := time.Now()
	res, err := newClient(ts).Matrix(context.Background(), mperfd.MatrixRequest{Workloads: []string{"dot"}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, want the server's 1s Retry-After", elapsed)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d attempts, want 2", got)
	}
	if len(res.Cells) != 1 || res.Cells[0].Workload != "dot" {
		t.Fatalf("decoded cells %+v, want the served dot cell", res.Cells)
	}
}

// TestProfileContextBoundsRetries: the caller's deadline cuts the
// retry loop short — the backoff never outlives the context.
func TestProfileContextBoundsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // would sleep 30s without the ctx
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := newClient(ts).Profile(ctx, dotRequest(), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop outlived the context: %v", elapsed)
	}
}

// TestDetectContextRespectsCaller: a dead caller context aborts the
// probe immediately instead of waiting out the probe timeout against
// an unreachable daemon.
func TestDetectContextRespectsCaller(t *testing.T) {
	t.Setenv(client.AddrEnv, "127.0.0.1:1") // nothing listens there
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if c := client.DetectContext(ctx); c != nil {
		t.Fatal("DetectContext found a daemon on a dead context")
	}
}

// TestProbeTimeoutEnv: MPERFD_PROBE_TIMEOUT overrides the probe
// bound; nonsense falls back to the default.
func TestProbeTimeoutEnv(t *testing.T) {
	t.Setenv(client.ProbeTimeoutEnv, "1s")
	if c := client.New("127.0.0.1:1"); c.ProbeTimeout != time.Second {
		t.Fatalf("ProbeTimeout = %v, want 1s", c.ProbeTimeout)
	}
	t.Setenv(client.ProbeTimeoutEnv, "not-a-duration")
	if c := client.New("127.0.0.1:1"); c.ProbeTimeout != client.DefaultProbeTimeout {
		t.Fatalf("ProbeTimeout = %v, want default %v", c.ProbeTimeout, client.DefaultProbeTimeout)
	}
}

// TestKillDaemonMidStream is the headline fallback guarantee: the
// daemon's connection is severed mid-stream (after collector frames
// are on the wire), and ProfileWithFallback must detect the
// interruption, report it as ErrInterrupted, run the request
// in-process, and hand back a profile byte-identical to one computed
// without any daemon at all.
func TestKillDaemonMidStream(t *testing.T) {
	srv := mperfd.New(mperfd.Config{Workers: 2, QueueDepth: 8, Cache: mperf.NewProgramCache()})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.ConnDrop, faultinject.Times(1))

	req := dotRequest()
	local := func() (*mperf.Profile, error) {
		sess, err := mperf.Open(req.Platform, req.Workload,
			mperf.WithConfig(req.Sizing), mperf.WithProgramCache(mperf.NewProgramCache()))
		if err != nil {
			return nil, err
		}
		return sess.Run(mperf.MustCollectors(req.Collectors...)...)
	}

	var fallbackErr error
	prof, fromDaemon, err := client.ProfileWithFallback(context.Background(), newClient(ts), req, nil,
		func(e error) { fallbackErr = e }, local)
	if err != nil {
		t.Fatal(err)
	}
	if fromDaemon {
		t.Fatal("profile reported as daemon-served despite the dropped connection")
	}
	if !errors.Is(fallbackErr, client.ErrInterrupted) {
		t.Fatalf("fallback cause = %v, want ErrInterrupted", fallbackErr)
	}

	want, err := local()
	if err != nil {
		t.Fatal(err)
	}
	if got, ref := marshalNoCompileStats(t, prof), marshalNoCompileStats(t, want); !bytes.Equal(got, ref) {
		t.Fatalf("fallback profile diverges from in-process run:\n got %s\nwant %s", got, ref)
	}
}

// TestNilClientFallsBack: no daemon at all goes straight in-process.
func TestNilClientFallsBack(t *testing.T) {
	want := &mperf.Profile{Workload: "dot"}
	prof, fromDaemon, err := client.ProfileWithFallback(context.Background(), nil, dotRequest(), nil, nil,
		func() (*mperf.Profile, error) { return want, nil })
	if err != nil || fromDaemon || prof != want {
		t.Fatalf("got (%v, %v, %v), want (want, false, nil)", prof, fromDaemon, err)
	}
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
