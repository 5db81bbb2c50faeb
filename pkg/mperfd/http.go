package mperfd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mperf/pkg/mperf"
	"mperf/pkg/mperf/faultinject"
)

// SessionHeader is the optional HTTP request header binding a request
// to a previously opened client session (POST /v1/sessions). Requests
// without it run in an ephemeral per-request session.
const SessionHeader = "Mperfd-Session"

// Handler returns the daemon's HTTP API:
//
//	GET  /healthz        health + degraded state (JSON; 503 when draining)
//	GET  /v1/workloads   registered workloads
//	GET  /v1/platforms   registered platforms
//	GET  /v1/stats       daemon + program-cache counters
//	POST /v1/sessions    open a client session → {"id": ...}
//	DELETE /v1/sessions/{id}  close it (cancels in-flight requests)
//	POST /v1/profile     profile request → NDJSON Frame stream
//	POST /v1/matrix      matrix sweep → MatrixResponse
//
// /v1/profile streams: one type="collector" Frame per collector in
// declared order, as each finishes, then a terminal type="profile" Frame whose
// profile is bit-identical to the equivalent in-process run. Failure
// mapping: a full queue or a session over its rate/quota limits is
// 429 with a Retry-After computed from real queue depth and drain
// rate; a draining server is 503; a missed server-side deadline is
// 504. A failure after streaming has started can no longer change the
// status code, so it becomes a terminal type="error" Frame with a
// machine-readable Code instead.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := s.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status == "draining" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = mperf.WriteJSON(w, h)
	})
	mux.HandleFunc("GET /v1/workloads", func(w http.ResponseWriter, r *http.Request) {
		infos, err := mperf.WorkloadInfos()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, infos)
	})
	mux.HandleFunc("GET /v1/platforms", func(w http.ResponseWriter, r *http.Request) {
		infos, err := mperf.PlatformInfos()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, infos)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Name string `json:"name"`
		}
		_ = json.NewDecoder(r.Body).Decode(&body) // empty body = unnamed session
		cs := s.OpenSession(body.Name)
		writeJSON(w, map[string]string{"id": cs.ID()})
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.CloseSession(r.PathValue("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/profile", s.handleProfile)
	mux.HandleFunc("POST /v1/matrix", s.handleMatrix)
	return mux
}

// requestSession resolves the request's client session: the
// SessionHeader if present (404s on unknown IDs), otherwise an
// ephemeral session closed when the request finishes.
func (s *Server) requestSession(w http.ResponseWriter, r *http.Request) (*ClientSession, func(), bool) {
	if id := r.Header.Get(SessionHeader); id != "" {
		cs, ok := s.Session(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("mperfd: unknown session %q", id))
			return nil, nil, false
		}
		return cs, func() {}, true
	}
	cs := s.OpenSession("")
	return cs, func() { s.CloseSession(cs.ID()) }, true
}

// failStatus maps a request error to its HTTP status.
func failStatus(err error) int {
	switch errorCode(err) {
	case "busy", "rate_limited", "quota":
		return http.StatusTooManyRequests
	case "draining":
		return http.StatusServiceUnavailable
	case "deadline":
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// setRetryAfter attaches the Retry-After header for retryable
// rejections: a rate-limited session gets its own bucket's refill
// time, everything else gets the server's backlog-derived estimate.
func (s *Server) setRetryAfter(w http.ResponseWriter, err error) {
	var after time.Duration
	var rle *RateLimitError
	switch {
	case errors.As(err, &rle):
		after = rle.RetryAfter
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrSessionQuota), errors.Is(err, ErrDraining):
		after = s.RetryAfter()
	default:
		return
	}
	secs := int((after + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("mperfd: decoding profile request: %w", err))
		return
	}
	// Validate before streaming starts so name typos and bad sizing
	// are still clean 4xx responses.
	if _, _, err := req.open(s.cache); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cs, release, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var (
		wmu     sync.Mutex
		wrote   bool // a frame reached the wire: the status code is spent
		dropped bool // conn.drop fired: the connection is gone
	)
	writeFrame := func(f Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		if dropped {
			return
		}
		wrote = true
		// A write error means the client is gone; its context will
		// cancel the request, so dropping the frame is fine.
		_ = mperf.WriteJSONLine(w, f)
		if flusher != nil {
			flusher.Flush()
		}
		// Chaos: sever the connection mid-stream, after a frame has
		// been delivered, to exercise client-side interruption
		// handling and in-process fallback.
		if faultinject.Fire(faultinject.ConnDrop) {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					dropped = true
				}
			}
		}
	}

	prof, err := s.Profile(r.Context(), cs, req, func(res mperf.CollectorResult) {
		writeFrame(Frame{Type: "collector", Result: &res})
	})
	streamed := func() bool {
		wmu.Lock()
		defer wmu.Unlock()
		return wrote
	}()
	switch {
	case err != nil && !streamed:
		// Nothing on the wire yet: the status code is still ours.
		w.Header().Del("Content-Type")
		s.setRetryAfter(w, err)
		httpError(w, failStatus(err), err)
	case err != nil:
		writeFrame(Frame{Type: "error", Error: err.Error(), Code: errorCode(err), Busy: errors.Is(err, ErrQueueFull)})
	default:
		writeFrame(Frame{Type: "profile", Profile: prof})
	}
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	var req MatrixRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("mperfd: decoding matrix request: %w", err))
		return
	}
	if err := req.spec(s.cache).Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	cs, release, ok := s.requestSession(w, r)
	if !ok {
		return
	}
	defer release()
	res, err := s.Matrix(r.Context(), cs, req)
	if err != nil {
		s.setRetryAfter(w, err)
		httpError(w, failStatus(err), err)
		return
	}
	writeJSON(w, res)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = mperf.WriteJSON(w, v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = mperf.WriteJSONLine(w, map[string]string{"error": err.Error()})
}
