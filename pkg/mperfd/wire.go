package mperfd

import (
	"context"
	"errors"
	"fmt"

	"mperf/pkg/mperf"
)

// Sizing was the daemon's own copy of the run configuration.
//
// Deprecated: use mperf.Config, which both request types embed flat
// under the field name Sizing, so a curl body says `"matmul_n": 64`
// whether it profiles one cell or sweeps a matrix.
type Sizing = mperf.Config

// ProfileRequest is one profile request as it travels over either
// transport: which platform × workload to profile, which collectors
// to run, and the run configuration, flat in the body.
type ProfileRequest struct {
	Platform string `json:"platform"`
	Workload string `json:"workload"`
	// Collectors defaults to the full registry when empty.
	Collectors []string `json:"collectors,omitempty"`
	// TimeoutMS overrides the server's default request deadline, in
	// milliseconds, capped by the server's configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Sizing
}

// open validates the request against the registries and opens its
// session against the serving cache — name typos and bad sizing
// surface here, before the request occupies a queue slot.
func (r ProfileRequest) open(cache *mperf.ProgramCache) (*mperf.Session, []mperf.Collector, error) {
	if r.Platform == "" || r.Workload == "" {
		return nil, nil, fmt.Errorf("mperfd: profile request needs platform and workload")
	}
	names := r.Collectors
	if len(names) == 0 {
		names = mperf.CollectorNames()
	}
	cs, err := mperf.Collectors(names...)
	if err != nil {
		return nil, nil, err
	}
	sess, err := mperf.Open(r.Platform, r.Workload, mperf.WithConfig(r.Sizing), mperf.WithProgramCache(cache))
	if err != nil {
		return nil, nil, err
	}
	return sess, cs, nil
}

// MatrixRequest sweeps platforms × workloads × collectors through the
// daemon's shared program cache. Empty lists default to the full
// registries, exactly like mperf.RunMatrix; the run configuration
// applies to every cell.
type MatrixRequest struct {
	Platforms   []string `json:"platforms,omitempty"`
	Workloads   []string `json:"workloads,omitempty"`
	Collectors  []string `json:"collectors,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	// TimeoutMS overrides the server's default request deadline, in
	// milliseconds, capped by the server's configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Sizing
}

// spec is the sweep the request asks for, compiled through cache.
// Its Validate makes a typo or a negative size a 400, not a sweep of
// failed cells.
func (r MatrixRequest) spec(cache *mperf.ProgramCache) mperf.MatrixSpec {
	return mperf.MatrixSpec{
		Platforms:   r.Platforms,
		Workloads:   r.Workloads,
		Collectors:  r.Collectors,
		Options:     []mperf.Option{mperf.WithConfig(r.Sizing), mperf.WithProgramCache(cache)},
		Parallelism: r.Parallelism,
	}
}

// MatrixResponse is the daemon's matrix result: the cells plus the
// serving cache's life-to-date counters (the one source of truth the
// matrix verb and /v1/stats both read).
type MatrixResponse struct {
	Cells []mperf.MatrixCell `json:"cells"`
	Cache mperf.CacheStats   `json:"cache"`
}

// StatsResponse is the daemon's self-description: pool and queue
// shape, request accounting, open sessions, and the program cache's
// counters straight from ProgramCache.Stats.
type StatsResponse struct {
	Workers    int    `json:"workers"`
	QueueCap   int    `json:"queue_cap"`
	QueueDepth int    `json:"queue_depth"`
	Active     int64  `json:"active"`
	Served     uint64 `json:"served"`
	Rejected   uint64 `json:"rejected"`
	// Limited counts requests rejected by per-session rate limits or
	// in-flight quotas (429s that are the session's fault, not the
	// queue's).
	Limited uint64 `json:"limited,omitempty"`
	// Panics counts contained worker panics; the workers survived every
	// one of them.
	Panics uint64 `json:"panics,omitempty"`
	// DeadlineMisses counts requests that hit the server-enforced
	// deadline before finishing.
	DeadlineMisses uint64           `json:"deadline_misses,omitempty"`
	SessionsOpen   int              `json:"sessions_open"`
	SessionsTotal  uint64           `json:"sessions_total"`
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Cache          mperf.CacheStats `json:"cache"`
}

// HealthResponse is what GET /healthz serves: liveness plus degraded
// state. Status is "ok", "degraded" (recent contained panic or a
// near-saturated queue — still serving, but shed load), or "draining"
// (shutting down; served with HTTP 503).
type HealthResponse struct {
	Status              string  `json:"status"`
	Workers             int     `json:"workers"`
	QueueDepth          int     `json:"queue_depth"`
	QueueCap            int     `json:"queue_cap"`
	QueueSaturation     float64 `json:"queue_saturation"`
	Panics              uint64  `json:"panics"`
	RecentPanic         bool    `json:"recent_panic"`
	LastPanicAgoSeconds float64 `json:"last_panic_ago_seconds,omitempty"`
	DeadlineMisses      uint64  `json:"deadline_misses"`
	Rejected            uint64  `json:"rejected"`
	// RetryAfterSeconds is the backoff the daemon is currently handing
	// to rejected requests, derived from queue depth and drain rate.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// Frame is one message of a streamed response, shared verbatim by the
// HTTP NDJSON stream and the stdio transport: a sequence of
// type="collector" frames in declared collector order, terminated by
// exactly one type="profile" (the merged result) or type="error"
// frame. The stdio transport additionally threads the request ID
// through every frame; over HTTP the connection is the correlation.
type Frame struct {
	ID   string `json:"id,omitempty"`
	Type string `json:"type"`

	// type="collector": one collector finished.
	Result *mperf.CollectorResult `json:"result,omitempty"`

	// type="profile": the merged profile, bit-identical to an
	// in-process Session.Run of the same request.
	Profile *mperf.Profile `json:"profile,omitempty"`

	// Terminal payloads of the non-streaming stdio methods.
	Matrix    *MatrixResponse      `json:"matrix,omitempty"`
	Workloads []mperf.WorkloadInfo `json:"workloads,omitempty"`
	Platforms []mperf.PlatformInfo `json:"platforms,omitempty"`
	Stats     *StatsResponse       `json:"stats,omitempty"`
	Health    *HealthResponse      `json:"health,omitempty"`

	// type="error": the request failed; Error explains why, and Code
	// classifies the failure for programmatic handling: "busy" (queue
	// backpressure — retry after a backoff), "rate_limited", "quota",
	// "draining", "deadline", "cancelled", "panic" (the request died to
	// a contained panic; the daemon is still serving), "bad_frame"
	// (malformed request line), "frame_too_large" (oversized request
	// line), or "" for uncategorized errors. Busy is the legacy
	// boolean form of Code=="busy".
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
	Busy  bool   `json:"busy,omitempty"`
}

// errorCode classifies an error for Frame.Code and the transports'
// shared status mapping.
func errorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrQueueFull):
		return "busy"
	case errors.Is(err, ErrRateLimited):
		return "rate_limited"
	case errors.Is(err, ErrSessionQuota):
		return "quota"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case mperf.IsPanic(err):
		return "panic"
	default:
		return ""
	}
}

// Request is one stdio-transport request line. Method selects the
// operation; the matching payload field parameterizes it. The HTTP
// transport carries the same payloads on per-method routes instead.
type Request struct {
	ID      string          `json:"id,omitempty"`
	Method  string          `json:"method"`
	Profile *ProfileRequest `json:"profile,omitempty"`
	Matrix  *MatrixRequest  `json:"matrix,omitempty"`
}
