package mperfd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ClientSession is one client's standing context in the daemon: a
// stdio connection holds one for its lifetime, an HTTP client opts in
// by sending the Mperfd-Session header, and header-less HTTP requests
// get an ephemeral one per request. Closing a session cancels its
// in-flight requests; the workers then drain those requests' machines
// back to the program pools before the session counts as gone.
//
// Sessions are also the daemon's fairness unit: when the server is
// configured with per-session limits, each session carries its own
// in-flight quota and request-rate token bucket, so one greedy client
// saturates its own session, not the daemon.
type ClientSession struct {
	id      string
	name    string
	created time.Time

	ctx    context.Context
	cancel context.CancelFunc

	maxInFlight int64        // 0 = unlimited
	bucket      *tokenBucket // nil = unlimited

	requests atomic.Uint64
	active   atomic.Int64
}

// ID returns the session's server-assigned identifier.
func (cs *ClientSession) ID() string { return cs.id }

// Name returns the client-chosen label (may be empty).
func (cs *ClientSession) Name() string { return cs.name }

// Requests returns how many requests the session has submitted.
func (cs *ClientSession) Requests() uint64 { return cs.requests.Load() }

// Active returns how many of the session's requests are in flight.
func (cs *ClientSession) Active() int64 { return cs.active.Load() }

// tokenBucket is a minimal token-bucket rate limiter: rps tokens per
// second refill up to burst, one token per request.
type tokenBucket struct {
	mu     sync.Mutex
	rps    float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rps, burst float64) *tokenBucket {
	return &tokenBucket{rps: rps, burst: burst, tokens: burst, last: time.Now()}
}

// take consumes one token, or reports the wait until one refills.
func (b *tokenBucket) take() (ok bool, wait time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rps
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, time.Duration((1 - b.tokens) / b.rps * float64(time.Second))
}

// begin scopes one request to the session: the session's quota and
// rate limits are charged first (a typed rejection leaves no state
// behind), then the returned context is cancelled when either the
// request's own context or the session dies, and the returned finish
// releases the per-request bookkeeping.
func (cs *ClientSession) begin(ctx context.Context) (context.Context, func(), error) {
	if n := cs.active.Add(1); cs.maxInFlight > 0 && n > cs.maxInFlight {
		cs.active.Add(-1)
		return nil, nil, ErrSessionQuota
	}
	if cs.bucket != nil {
		if ok, wait := cs.bucket.take(); !ok {
			cs.active.Add(-1)
			return nil, nil, &RateLimitError{RetryAfter: wait}
		}
	}
	cs.requests.Add(1)
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(cs.ctx, cancel)
	return ctx, func() {
		stop()
		cancel()
		cs.active.Add(-1)
	}, nil
}

// OpenSession registers a new client session under an optional
// client-chosen name, carrying the server's per-session limits.
func (s *Server) OpenSession(name string) *ClientSession {
	ctx, cancel := context.WithCancel(context.Background())
	cs := &ClientSession{
		name:        name,
		created:     time.Now(),
		ctx:         ctx,
		cancel:      cancel,
		maxInFlight: s.sessQuota,
	}
	if s.sessRPS > 0 {
		cs.bucket = newTokenBucket(s.sessRPS, max(1, s.sessRPS))
	}
	s.mu.Lock()
	s.nextID++
	cs.id = fmt.Sprintf("s%d", s.nextID)
	s.sessions[cs.id] = cs
	s.mu.Unlock()
	s.sessionsTotal.Add(1)
	return cs
}

// Session resolves a session by ID.
func (s *Server) Session(id string) (*ClientSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.sessions[id]
	return cs, ok
}

// CloseSession cancels a session's in-flight requests and removes it.
// Unknown IDs are a no-op, so transports can close unconditionally.
func (s *Server) CloseSession(id string) {
	s.mu.Lock()
	cs, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		cs.cancel()
	}
}
