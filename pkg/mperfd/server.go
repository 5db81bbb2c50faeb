// Package mperfd is the resident profiling daemon over the pkg/mperf
// stack: it keeps one process-lifetime ProgramCache and the warm
// machine pools behind it resident, and serves concurrent profile
// requests through a bounded queue and worker pool, streaming each
// collector's section of the Profile as it finishes.
//
// The package is transport-agnostic at its core — Server carries the
// sessions, queue, workers and cache — with two thin transports on
// top: an HTTP JSON API (Server.Handler; /v1/profile streams NDJSON
// Frames) and a newline-delimited JSON stdio transport
// (Server.ServeStdio) sharing the same request handler. cmd/mperfd
// wires both behind a `serve` verb; pkg/mperfd/client is the matching
// thin client, which cmd/miniperf uses automatically when a daemon is
// reachable.
//
// Concurrency model: requests enter a bounded queue (Enqueue returns
// ErrQueueFull instead of growing without bound — HTTP maps it to
// 429) and are drained by a fixed worker pool. Each request opens a
// cheap mperf.Session against the server's shared ProgramCache, so
// after the first wave of compiles every request is pure warm
// instantiation. Collectors inside one request run one at a time, in
// declared order, on the worker's goroutine via Session.RunStream, so
// a request holds one machine at a time and the worker pool stays the
// daemon's unit of parallelism; each machine is released back to its
// program pool even when the client goes away mid-request.
//
// Failure semantics: the daemon is built to degrade, never to die.
// A panic anywhere in a job — a collector, a compile, the worker
// itself — is contained into a typed *mperf.PanicError and the worker
// keeps serving. Every request runs under a server-enforced deadline
// (Config.RequestTimeout, overridable per request up to
// Config.MaxRequestTimeout); a missed deadline returns ErrDeadline
// while the worker drains the job's machines in the background. Client
// sessions carry optional in-flight quotas and request-rate limits
// with typed rejections (ErrSessionQuota, RateLimitError), and
// Health reports the degraded state — recent panics, queue
// saturation, deadline misses — that /healthz serves.
package mperfd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
)

// Errors the request-admission path returns; transports map them to
// their protocol's backpressure signals (HTTP 429 / 503 / 504, stdio
// typed error frames).
var (
	// ErrQueueFull reports that the bounded request queue is at
	// capacity; the client should retry after a backoff.
	ErrQueueFull = errors.New("mperfd: request queue full")
	// ErrDraining reports that the server is shutting down and accepts
	// no new requests.
	ErrDraining = errors.New("mperfd: server draining")
	// ErrDeadline reports that the server-enforced per-request deadline
	// expired before the request finished; the work is abandoned to the
	// worker, which drains its machines in the background.
	ErrDeadline = errors.New("mperfd: request deadline exceeded")
	// ErrSessionQuota reports that a client session is at its in-flight
	// request quota; the client should finish or cancel a request
	// before submitting more.
	ErrSessionQuota = errors.New("mperfd: session in-flight quota exceeded")
	// ErrRateLimited reports that a client session exceeded its request
	// rate; RateLimitError carries the suggested wait.
	ErrRateLimited = errors.New("mperfd: session rate limit exceeded")
)

// RateLimitError is the typed rate-limit rejection: it matches
// ErrRateLimited under errors.Is and carries the wait after which the
// session's token bucket has capacity again.
type RateLimitError struct {
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *RateLimitError) Error() string {
	return fmt.Sprintf("mperfd: session rate limit exceeded (retry in %v)", e.RetryAfter.Round(time.Millisecond))
}

// Is matches ErrRateLimited.
func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// DefaultRequestTimeout bounds requests when Config.RequestTimeout is
// zero. Simulated profiling finishes in seconds; a request that is
// still running after two minutes is stuck, and holding its queue slot
// and worker forever is how daemons die under load.
const DefaultRequestTimeout = 2 * time.Minute

// DefaultMaxRequestTimeout caps per-request deadline overrides when
// Config.MaxRequestTimeout is zero.
const DefaultMaxRequestTimeout = 10 * time.Minute

// recentPanicWindow is how long after a contained panic Health keeps
// reporting the daemon degraded.
const recentPanicWindow = 5 * time.Minute

// Config sizes a Server. Zero values mean defaults.
type Config struct {
	// Workers is the number of request workers (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the request queue (default 64). A full queue
	// rejects with ErrQueueFull rather than growing.
	QueueDepth int
	// Cache is the program cache requests compile through (default
	// mperf.DefaultProgramCache, shared with in-process callers).
	Cache *mperf.ProgramCache
	// RequestTimeout is the server-enforced deadline applied to every
	// request (default DefaultRequestTimeout; negative disables).
	// Requests may override it per call, capped by MaxRequestTimeout.
	RequestTimeout time.Duration
	// MaxRequestTimeout caps per-request deadline overrides (default
	// DefaultMaxRequestTimeout).
	MaxRequestTimeout time.Duration
	// SessionMaxInFlight caps how many requests one client session may
	// have in flight (0 = unlimited). Exceeding it rejects with
	// ErrSessionQuota.
	SessionMaxInFlight int
	// SessionRPS rate-limits each client session to this many requests
	// per second via a token bucket (0 = unlimited). Exceeding it
	// rejects with a RateLimitError. The bucket holds max(1, SessionRPS)
	// tokens.
	SessionRPS float64
}

// Server is the daemon core: client sessions, the bounded request
// queue, the worker pool, and the resident program cache.
type Server struct {
	workers    int
	queueCap   int
	cache      *mperf.ProgramCache
	queue      chan *job
	start      time.Time
	defTimeout time.Duration
	maxTimeout time.Duration
	sessQuota  int64
	sessRPS    float64

	mu       sync.Mutex
	draining bool
	sessions map[string]*ClientSession
	nextID   uint64

	wg             sync.WaitGroup
	active         atomic.Int64
	served         atomic.Uint64
	rejected       atomic.Uint64
	limited        atomic.Uint64
	panics         atomic.Uint64
	lastPanicNano  atomic.Int64
	deadlineMisses atomic.Uint64
	svcNanos       atomic.Int64 // EWMA of per-job service time
	sessionsTotal  atomic.Uint64
}

// job is one queued request; exactly one of profile/matrix is set.
type job struct {
	ctx     context.Context
	sess    *ClientSession
	profile *ProfileRequest
	psess   *mperf.Session    // pre-validated session for profile jobs
	pcols   []mperf.Collector // pre-resolved collectors
	matrix  *MatrixRequest
	sink    func(mperf.CollectorResult)
	done    chan jobResult
}

type jobResult struct {
	profile *mperf.Profile
	matrix  *MatrixResponse
	err     error
}

// New builds a Server and starts its worker pool. Callers must
// Shutdown it to stop the workers.
func New(cfg Config) *Server {
	s := &Server{
		workers:    cfg.Workers,
		queueCap:   cfg.QueueDepth,
		cache:      cfg.Cache,
		start:      time.Now(),
		defTimeout: cfg.RequestTimeout,
		maxTimeout: cfg.MaxRequestTimeout,
		sessQuota:  int64(cfg.SessionMaxInFlight),
		sessRPS:    cfg.SessionRPS,
		sessions:   make(map[string]*ClientSession),
	}
	if s.workers <= 0 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	if s.queueCap <= 0 {
		s.queueCap = 64
	}
	if s.cache == nil {
		s.cache = mperf.DefaultProgramCache()
	}
	if s.defTimeout == 0 {
		s.defTimeout = DefaultRequestTimeout
	}
	if s.maxTimeout <= 0 {
		s.maxTimeout = DefaultMaxRequestTimeout
	}
	s.queue = make(chan *job, s.queueCap)
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache returns the program cache the server compiles through.
func (s *Server) Cache() *mperf.ProgramCache { return s.cache }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.active.Add(1)
		started := time.Now()
		j.done <- s.run(j)
		s.observeService(time.Since(started))
		s.active.Add(-1)
		s.served.Add(1)
	}
}

// run executes one dequeued job. A request whose context died while
// queued is skipped without touching any machine. A panic anywhere in
// the job — the worker.panic fault point, a collector bug that
// escaped the session's own containment, a corrupt request — is
// recovered into a typed *mperf.PanicError result, so a poisoned job
// can never take the worker (let alone the daemon) down with it.
func (s *Server) run(j *job) (res jobResult) {
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic()
			res = jobResult{err: mperf.NewPanicError("mperfd worker", r)}
		}
	}()
	if faultinject.Fire(faultinject.WorkerPanic) {
		panic(faultinject.WorkerPanic + " armed")
	}
	if err := j.ctx.Err(); err != nil {
		return jobResult{err: requestError(j.ctx)}
	}
	if j.profile != nil {
		prof, err := j.psess.RunStream(j.ctx, j.sink, j.pcols...)
		if err != nil && j.ctx.Err() != nil {
			err = requestError(j.ctx)
		}
		return jobResult{profile: prof, err: err}
	}
	res2, err := mperf.RunMatrix(j.matrix.spec(s.cache))
	if err != nil {
		return jobResult{err: err}
	}
	return jobResult{matrix: &MatrixResponse{Cells: res2.Cells, Cache: s.cache.Stats()}}
}

// recordPanic counts a contained panic for Health's degraded state.
func (s *Server) recordPanic() {
	s.panics.Add(1)
	s.lastPanicNano.Store(time.Now().UnixNano())
}

// observeService folds one job's wall time into the EWMA that
// RetryAfter's backlog estimate is built on (alpha = 1/5).
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.svcNanos.Load()
		ewma := d.Nanoseconds()
		if old > 0 {
			ewma = old + (d.Nanoseconds()-old)/5
		}
		if s.svcNanos.CompareAndSwap(old, ewma) {
			return
		}
	}
}

// RetryAfter estimates when a rejected request is worth retrying: the
// current backlog (queued + active jobs) divided across the worker
// pool, times the EWMA per-job service time, clamped to [1s, 30s].
// This is what the HTTP transport serves as Retry-After instead of a
// constant, so clients back off proportionally to real load.
func (s *Server) RetryAfter() time.Duration {
	svc := time.Duration(s.svcNanos.Load())
	if svc <= 0 {
		return time.Second
	}
	backlog := len(s.queue) + int(s.active.Load())
	rounds := (backlog + s.workers - 1) / s.workers
	if rounds < 1 {
		rounds = 1
	}
	d := time.Duration(rounds) * svc
	if d < time.Second {
		return time.Second
	}
	if d > 30*time.Second {
		return 30 * time.Second
	}
	return d
}

// requestContext applies the server's deadline policy to one request:
// the per-request override (milliseconds) when given, else the
// configured default, capped at the configured maximum. The deadline's
// cause is ErrDeadline, so expiry is distinguishable from a client
// cancel.
func (s *Server) requestContext(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.defTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.maxTimeout {
		d = s.maxTimeout
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d, ErrDeadline)
}

// requestError maps a dead request context to its typed error:
// ErrDeadline when the server-enforced deadline expired, the plain
// context error otherwise.
func requestError(ctx context.Context) error {
	if err := context.Cause(ctx); errors.Is(err, ErrDeadline) {
		return ErrDeadline
	}
	return ctx.Err()
}

// enqueue admits a job or reports backpressure. It never blocks: a
// full queue is the client's problem (retry after backoff), not a
// reason to grow server state.
func (s *Server) enqueue(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if faultinject.Fire(faultinject.QueueExhaust) {
		s.rejected.Add(1)
		return ErrQueueFull
	}
	select {
	case s.queue <- j:
		return nil
	default:
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// submit queues the job and waits for its result or the caller's
// context. On cancellation or deadline the job itself is left to the
// worker — run() skips it if it never started, and RunStream drains a
// started job's machines back to their pools.
func (s *Server) submit(ctx context.Context, j *job) (jobResult, error) {
	if err := s.enqueue(j); err != nil {
		return jobResult{}, err
	}
	select {
	case res := <-j.done:
		if errors.Is(res.err, ErrDeadline) {
			s.deadlineMisses.Add(1)
		}
		return res, res.err
	case <-ctx.Done():
		err := requestError(ctx)
		if errors.Is(err, ErrDeadline) {
			s.deadlineMisses.Add(1)
		}
		return jobResult{}, err
	}
}

// Profile runs one profile request through the queue. sink (optional)
// receives each collector's partial result in declared order, from
// the worker goroutine, as each collector finishes. The returned profile is bit-identical to an
// in-process Session.Run of the same request (modulo CompileStats,
// which reflect this daemon's warm cache).
func (s *Server) Profile(ctx context.Context, cs *ClientSession, req ProfileRequest, sink func(mperf.CollectorResult)) (*mperf.Profile, error) {
	sess, cols, err := req.open(s.cache)
	if err != nil {
		return nil, err
	}
	ctx, finish, err := cs.begin(ctx)
	if err != nil {
		s.limited.Add(1)
		return nil, err
	}
	defer finish()
	ctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	j := &job{ctx: ctx, sess: cs, profile: &req, psess: sess, pcols: cols, sink: sink, done: make(chan jobResult, 1)}
	res, err := s.submit(ctx, j)
	return res.profile, err
}

// Matrix runs a sweep through the queue as a single job, bounded by
// the sweep's own worker pool.
func (s *Server) Matrix(ctx context.Context, cs *ClientSession, req MatrixRequest) (*MatrixResponse, error) {
	if err := req.spec(s.cache).Validate(); err != nil {
		return nil, err
	}
	ctx, finish, err := cs.begin(ctx)
	if err != nil {
		s.limited.Add(1)
		return nil, err
	}
	defer finish()
	ctx, cancel := s.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	j := &job{ctx: ctx, sess: cs, matrix: &req, done: make(chan jobResult, 1)}
	res, err := s.submit(ctx, j)
	return res.matrix, err
}

// Stats snapshots the daemon's state for /v1/stats and the stats
// method. The cache counters come straight from ProgramCache.Stats —
// the same source of truth the matrix verb reports.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	open := len(s.sessions)
	s.mu.Unlock()
	return StatsResponse{
		Workers:        s.workers,
		QueueCap:       s.queueCap,
		QueueDepth:     len(s.queue),
		Active:         s.active.Load(),
		Served:         s.served.Load(),
		Rejected:       s.rejected.Load(),
		Limited:        s.limited.Load(),
		Panics:         s.panics.Load(),
		DeadlineMisses: s.deadlineMisses.Load(),
		SessionsOpen:   open,
		SessionsTotal:  s.sessionsTotal.Load(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Cache:          s.cache.Stats(),
	}
}

// Health reports the daemon's serving state for /healthz: "ok" when
// serving normally, "degraded" when it recently contained a panic or
// the queue is near saturation, "draining" during shutdown. Degraded
// is informational — the daemon still serves — but operators and
// orchestrators should treat it as a signal to shed load or
// investigate.
func (s *Server) Health() HealthResponse {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	depth := len(s.queue)
	h := HealthResponse{
		Status:            "ok",
		QueueDepth:        depth,
		QueueCap:          s.queueCap,
		QueueSaturation:   float64(depth) / float64(s.queueCap),
		Workers:           s.workers,
		Panics:            s.panics.Load(),
		DeadlineMisses:    s.deadlineMisses.Load(),
		Rejected:          s.rejected.Load(),
		RetryAfterSeconds: int(s.RetryAfter() / time.Second),
	}
	if last := s.lastPanicNano.Load(); last > 0 {
		h.LastPanicAgoSeconds = time.Since(time.Unix(0, last)).Seconds()
		if h.LastPanicAgoSeconds < recentPanicWindow.Seconds() {
			h.RecentPanic = true
		}
	}
	switch {
	case draining:
		h.Status = "draining"
	case h.RecentPanic || h.QueueSaturation >= 0.9:
		h.Status = "degraded"
	}
	return h
}

// Shutdown drains the server: no new requests are admitted, queued
// and in-flight requests run to completion, then the workers exit. If
// ctx expires first, every open client session is cancelled (which
// unblocks their jobs' waiters) and the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, cs := range s.sessions {
			cs.cancel()
		}
		s.mu.Unlock()
		return fmt.Errorf("mperfd: shutdown: %w", ctx.Err())
	}
}
