// Package client is the thin HTTP client of the mperfd daemon. It
// speaks the wire types of pkg/mperfd and consumes /v1/profile's
// NDJSON stream, so a caller gets each collector's partial result as
// the daemon flushes it plus the final merged profile.
//
// The client honours the daemon's backpressure contract: 429 and 503
// responses are retried with exponential backoff plus jitter, bounded
// by RetryPolicy and the caller's context, and a Retry-After header
// overrides the computed backoff — the daemon knows its own queue
// better than any client-side guess. A stream that dies after frames
// have been delivered is never blindly retried (frames would repeat);
// it surfaces as ErrInterrupted so callers can fall back, which
// ProfileWithFallback packages up for cmd/miniperf: daemon first,
// retries per policy, in-process execution when the daemon is gone.
//
// Detect implements the CLI's daemon discovery: MPERFD_ADDR if set,
// otherwise the default local address, probed with a short timeout so
// `miniperf` falls back to in-process execution instantly when no
// daemon is running. The probe timeout is configurable
// (Client.ProbeTimeout, MPERFD_PROBE_TIMEOUT) and DetectContext
// threads the caller's context through, so a cancelled CLI never
// hangs on a dead daemon address.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperfd"
)

// DefaultAddr is where a locally started daemon listens unless told
// otherwise, and where Detect probes when MPERFD_ADDR is unset.
const DefaultAddr = "127.0.0.1:7421"

// AddrEnv is the environment variable naming the daemon address.
const AddrEnv = "MPERFD_ADDR"

// ProbeTimeoutEnv overrides the daemon-discovery probe timeout (Go
// duration syntax, e.g. "1s").
const ProbeTimeoutEnv = "MPERFD_PROBE_TIMEOUT"

// DefaultProbeTimeout bounds Detect's liveness probe: long enough for
// a healthy local daemon, short enough that `miniperf` falls back to
// in-process execution without a noticeable stall.
const DefaultProbeTimeout = 250 * time.Millisecond

// Typed daemon failures, distinguishable with errors.Is so callers
// can choose between retrying, backing off, and falling back.
var (
	// ErrBusy reports daemon backpressure (HTTP 429): the bounded
	// request queue (or the session's rate/quota limit) rejected the
	// request, and the retry budget was exhausted without getting in.
	ErrBusy = errors.New("mperfd: daemon busy (queue full)")
	// ErrUnavailable reports HTTP 503: the daemon is draining and will
	// not take new work.
	ErrUnavailable = errors.New("mperfd: daemon unavailable (draining)")
	// ErrDeadline reports HTTP 504: the daemon's server-side request
	// deadline expired before the request finished.
	ErrDeadline = errors.New("mperfd: daemon request deadline exceeded")
	// ErrInterrupted reports a response stream that died after frames
	// were delivered — the daemon crashed or the connection dropped
	// mid-request. The request may have half-run; callers should fall
	// back to in-process execution rather than retry blindly.
	ErrInterrupted = errors.New("mperfd: response stream interrupted")
)

// RetryPolicy bounds the client's retry loop for retryable failures
// (connection errors before any response, 429, 503).
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); attempt
	// n waits BaseDelay·2ⁿ with ±25% jitter, capped at MaxDelay. A
	// Retry-After header replaces the computed delay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait (default 3s).
	MaxDelay time.Duration
}

// DefaultRetryPolicy is what New installs.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 3 * time.Second}

// Delay computes the wait before the next try after attempt (0-based
// first try), honouring the server's Retry-After when present.
func (p RetryPolicy) Delay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := p.BaseDelay << uint(attempt)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	// ±25% jitter keeps a fleet of rejected clients from re-converging
	// on the daemon in lockstep.
	return d/2 + d/4 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Client talks to one daemon.
type Client struct {
	base string // "http://host:port"
	http *http.Client
	// SessionID, when set, binds every request to a daemon session.
	SessionID string
	// Retry bounds the backoff loop on 429/503/connection failures.
	Retry RetryPolicy
	// ProbeTimeout bounds Detect's liveness probe (default
	// DefaultProbeTimeout, overridable via MPERFD_PROBE_TIMEOUT).
	ProbeTimeout time.Duration
}

// New returns a client for the daemon at addr (host:port, or a full
// http:// base URL).
func New(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:         strings.TrimRight(base, "/"),
		http:         &http.Client{},
		Retry:        DefaultRetryPolicy,
		ProbeTimeout: probeTimeout(),
	}
}

// probeTimeout resolves the discovery probe timeout from the
// environment, falling back to the default on absence or nonsense.
func probeTimeout() time.Duration {
	if v := os.Getenv(ProbeTimeoutEnv); v != "" {
		if d, err := time.ParseDuration(v); err == nil && d > 0 {
			return d
		}
	}
	return DefaultProbeTimeout
}

// Addr returns the daemon base URL the client targets.
func (c *Client) Addr() string { return c.base }

// EnvAddr resolves the daemon address from MPERFD_ADDR, falling back
// to DefaultAddr.
func EnvAddr() string {
	if addr := os.Getenv(AddrEnv); addr != "" {
		return addr
	}
	return DefaultAddr
}

// Detect probes for a running daemon at EnvAddr and returns a client
// for it, or nil when none responds within the probe timeout. This is
// the auto-discovery `miniperf` runs before every daemon-able verb.
func Detect() *Client { return DetectContext(context.Background()) }

// DetectContext is Detect bounded by the caller's context as well as
// the probe timeout, so discovery aborts as soon as either gives up.
func DetectContext(ctx context.Context) *Client {
	c := New(EnvAddr())
	pctx, cancel := context.WithTimeout(ctx, c.ProbeTimeout)
	defer cancel()
	if err := c.Ping(pctx); err != nil {
		return nil
	}
	return c
}

// Ping checks daemon liveness via /healthz. A degraded daemon still
// pings OK (it is serving); a draining one does not.
func (c *Client) Ping(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mperfd: health check: %s", resp.Status)
	}
	return nil
}

// Health fetches the daemon's health and degraded-state report.
func (c *Client) Health(ctx context.Context) (*mperfd.HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out mperfd.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// do issues one request with the session header applied.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.SessionID != "" {
		req.Header.Set(mperfd.SessionHeader, c.SessionID)
	}
	return c.http.Do(req)
}

// retryable reports whether a response status is worth retrying, and
// the server-directed wait if it sent one.
func retryable(resp *http.Response) (bool, time.Duration) {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return false, 0
	}
	var after time.Duration
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			after = time.Duration(secs) * time.Second
		}
	}
	return true, after
}

// retry runs attempt under the client's retry policy until it
// succeeds, reports a failure that is not safe to retry, the context
// dies, or the attempts run out. attempt returns whether its failure
// may be retried and any server-directed wait (Retry-After), which
// replaces the computed backoff. The last attempt's error is returned.
func (c *Client) retry(ctx context.Context, attempt func() (retry bool, after time.Duration, err error)) error {
	attempts := max(1, c.Retry.MaxAttempts)
	for n := 0; ; n++ {
		retry, after, err := attempt()
		if err == nil || !retry || ctx.Err() != nil || n+1 >= attempts {
			return err
		}
		if err := sleepCtx(ctx, c.Retry.Delay(n, after)); err != nil {
			return err
		}
	}
}

// doRetry issues the request under the client's retry policy:
// connection failures and retryable statuses back off (honouring
// Retry-After) and try again. Requests against the daemon are pure
// computations, so retrying a POST is safe. The returned response may
// still be a non-retryable failure status the caller must map.
func (c *Client) doRetry(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	var resp *http.Response
	err := c.retry(ctx, func() (bool, time.Duration, error) {
		r, err := c.do(ctx, method, path, data)
		if err != nil {
			// Transport failure before a response: the daemon may be
			// restarting; worth another try unless the context died.
			if ctx.Err() != nil {
				return false, 0, ctx.Err()
			}
			return true, 0, err
		}
		if ok, after := retryable(r); ok {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			return true, after, decodeStatus(r)
		}
		resp = r
		return false, 0, nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// sleepCtx waits d or until ctx dies — the backoff must never outlive
// the caller's deadline.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decodeStatus maps a non-2xx response to its typed error.
func decodeStatus(resp *http.Response) error {
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return ErrBusy
	case http.StatusServiceUnavailable:
		return ErrUnavailable
	case http.StatusGatewayTimeout:
		return ErrDeadline
	}
	return nil
}

// decodeError turns a non-2xx response into an error.
func decodeError(resp *http.Response) error {
	if err := decodeStatus(resp); err != nil {
		return err
	}
	var body struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error != "" {
		return fmt.Errorf("mperfd: %s", body.Error)
	}
	return fmt.Errorf("mperfd: daemon returned %s", resp.Status)
}

// Profile sends one profile request and consumes the NDJSON stream.
// onFrame (optional) sees every frame as it arrives — partial
// collector results in declared order, then the terminal frame.
// The returned profile is the daemon's merged result.
//
// Backpressure and connection failures before the stream starts are
// retried per the client's RetryPolicy. A stream that breaks after
// delivering frames returns ErrInterrupted (wrapped) instead of being
// retried, because the frames already handed to onFrame cannot be
// unseen; callers fall back (see ProfileWithFallback).
func (c *Client) Profile(ctx context.Context, req mperfd.ProfileRequest, onFrame func(mperfd.Frame)) (*mperf.Profile, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var prof *mperf.Profile
	err = c.retry(ctx, func() (retry bool, after time.Duration, err error) {
		prof, retry, after, err = c.profileOnce(ctx, body, onFrame)
		return retry, after, err
	})
	if err != nil {
		return nil, err
	}
	return prof, nil
}

// profileOnce is one attempt of Profile. retry reports whether the
// failure is safe to retry (nothing irreversible reached onFrame), and
// after carries the server's Retry-After wait when it sent one.
func (c *Client) profileOnce(ctx context.Context, body []byte, onFrame func(mperfd.Frame)) (prof *mperf.Profile, retry bool, after time.Duration, err error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/profile", body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, 0, ctx.Err()
		}
		return nil, true, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if ok, after := retryable(resp); ok {
			return nil, true, after, decodeStatus(resp)
		}
		return nil, false, 0, decodeError(resp)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	sawFrame := false
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var f mperfd.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, false, 0, fmt.Errorf("mperfd: bad stream frame: %w", err)
		}
		sawFrame = true
		if onFrame != nil {
			onFrame(f)
		}
		switch f.Type {
		case "profile":
			prof = f.Profile
		case "error":
			if f.Busy || f.Code == "busy" {
				// The daemon rejected after the stream opened; nothing
				// ran, so the retry loop may take another swing.
				return nil, true, 0, ErrBusy
			}
			return nil, false, 0, fmt.Errorf("mperfd: %s", f.Error)
		}
	}
	if err := sc.Err(); err != nil {
		if !sawFrame {
			return nil, true, 0, err
		}
		return nil, false, 0, fmt.Errorf("%w: %v", ErrInterrupted, err)
	}
	if prof == nil {
		// The stream ended cleanly but without a terminal frame: the
		// daemon died mid-request.
		if !sawFrame {
			return nil, true, 0, fmt.Errorf("mperfd: stream ended without frames")
		}
		return nil, false, 0, fmt.Errorf("%w: stream ended without a terminal profile frame", ErrInterrupted)
	}
	return prof, false, 0, nil
}

// ProfileWithFallback is the CLI's daemon-first execution path as a
// library: serve req from daemon c (retrying per its policy), and when
// the daemon cannot — unreachable, overloaded past the retry budget,
// or dead mid-stream — run local instead. A nil client skips straight
// to local. onFallback (optional) observes the daemon error that
// triggered the fallback. fromDaemon reports which path produced the
// profile.
func ProfileWithFallback(ctx context.Context, c *Client, req mperfd.ProfileRequest, onFrame func(mperfd.Frame), onFallback func(error), local func() (*mperf.Profile, error)) (prof *mperf.Profile, fromDaemon bool, err error) {
	if c != nil {
		prof, err := c.Profile(ctx, req, onFrame)
		if err == nil {
			return prof, true, nil
		}
		if ctx.Err() != nil {
			return nil, false, err
		}
		if onFallback != nil {
			onFallback(err)
		}
	}
	prof, err = local()
	return prof, false, err
}

// Matrix runs a sweep on the daemon, retrying backpressure rejections
// per the client's policy.
func (c *Client) Matrix(ctx context.Context, req mperfd.MatrixRequest) (*mperfd.MatrixResponse, error) {
	resp, err := c.doRetry(ctx, http.MethodPost, "/v1/matrix", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var out mperfd.MatrixResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Workloads lists the daemon's workload registry.
func (c *Client) Workloads(ctx context.Context) ([]mperf.WorkloadInfo, error) {
	var out []mperf.WorkloadInfo
	return out, c.getJSON(ctx, "/v1/workloads", &out)
}

// Platforms lists the daemon's platform registry.
func (c *Client) Platforms(ctx context.Context) ([]mperf.PlatformInfo, error) {
	var out []mperf.PlatformInfo
	return out, c.getJSON(ctx, "/v1/platforms", &out)
}

// Stats fetches the daemon's self-description.
func (c *Client) Stats(ctx context.Context) (*mperfd.StatsResponse, error) {
	var out mperfd.StatsResponse
	return &out, c.getJSON(ctx, "/v1/stats", &out)
}

// OpenSession opens a named daemon session and binds the client to it.
func (c *Client) OpenSession(ctx context.Context, name string) (string, error) {
	body, _ := json.Marshal(map[string]string{"name": name})
	resp, err := c.do(ctx, http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	c.SessionID = out.ID
	return out.ID, nil
}

// CloseSession closes the client's bound session (if any), cancelling
// its in-flight requests on the daemon.
func (c *Client) CloseSession(ctx context.Context) error {
	if c.SessionID == "" {
		return nil
	}
	resp, err := c.do(ctx, http.MethodDelete, "/v1/sessions/"+c.SessionID, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.SessionID = ""
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.doRetry(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
