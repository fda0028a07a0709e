package mapserver

import (
	"net/http"
	"sync/atomic"
	"time"

	"lumos5g/internal/wire"
)

// Hardening middleware for the map service: the serving path must stay
// up while UEs in marginal coverage hammer it with slow, malformed or
// abandoned requests, so every route runs behind panic recovery, a
// request timeout, a method filter and a request-size cap, and all
// errors leave the server as structured JSON.

// writeJSONBytes sends a pre-marshalled JSON body (the prediction
// cache's stored wire form) without re-encoding.
func writeJSONBytes(w http.ResponseWriter, code int, body []byte) {
	wire.SetJSONType(w)
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// withRecovery converts a handler panic into a 500 JSON error instead of
// killing the connection (and, under some servers, the process).
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { // deliberate aborts pass through
					panic(rec)
				}
				wire.WriteError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withTimeout bounds one request's handler time. http.TimeoutHandler
// buffers the response and handles the writer race safely; the body it
// writes on expiry is our JSON error shape, newline-terminated like
// every other wire.WriteJSON response.
func withTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	th := http.TimeoutHandler(next, d, `{"error":"request timed out"}`+"\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// GET /predict bypasses the TimeoutHandler envelope. Its handler
		// is CPU-bound with strictly bounded work — a fixed-depth kernel
		// walk, no I/O, no body read — so it cannot hang the way a slow
		// body or a stuck artifact write can, and the http.Server's
		// Read/Write timeouts (serve.go) still bound the connection.
		// TimeoutHandler costs a goroutine, a context with deadline, a
		// cloned header map and a buffered body per request — about half
		// the allocations of the hot path — for protection this route
		// cannot use.
		if r.URL.Path == "/predict" && (r.Method == http.MethodGet || r.Method == http.MethodHead) {
			next.ServeHTTP(w, r)
			return
		}
		// TimeoutHandler writes its expiry body with whatever headers are
		// already on the outer writer, so the JSON content type must be
		// preset here for the 503 to match the rest of the API. On the
		// success path the inner handler's headers are merged over these
		// without deleting preset keys, and every route sets its own
		// Content-Type, so this never leaks onto non-JSON responses.
		wire.SetJSONType(w)
		th.ServeHTTP(w, r)
	})
}

// withMethodPolicy rejects anything but GET/HEAD — the service mostly
// publishes artifacts — except on the POST-able paths postCaps lists
// (batch prediction and ingest take a body).
func withMethodPolicy(next http.Handler, postCaps map[string]int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, post := postCaps[r.URL.Path]
		switch {
		case r.Method == http.MethodGet || r.Method == http.MethodHead:
		case r.Method == http.MethodPost && post:
		default:
			allow := "GET, HEAD"
			if post {
				allow = "GET, HEAD, POST"
			}
			w.Header().Set("Allow", allow)
			wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		next.ServeHTTP(w, r)
	})
}

// shedExempt lists the routes the shed gate never touches: liveness and
// metrics probes must reach a saturated server, or the fleet's health
// router would mark a merely-busy replica dead.
var shedExempt = map[string]bool{"/healthz": true, "/metrics": true}

// shedRetryAfter is the Retry-After hint on shed responses, in seconds.
// It is deliberately coarse: the point is to tell well-behaved callers
// (the fleet router, SDK clients) to back off rather than to predict
// when capacity frees up.
const shedRetryAfter = "1"

// withShed rejects work requests beyond limit concurrently in flight
// with a 503 + Retry-After — overload shedding, so a slow model walk
// under a thundering herd degrades into fast explicit backpressure
// instead of a pile of timed-out requests. limit <= 0 disables the gate.
// onShed is called once per shed request (wire it to lumos_shed_total).
func withShed(next http.Handler, limit int, exempt map[string]bool, onShed func()) http.Handler {
	if limit <= 0 {
		return next
	}
	var inFlight atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exempt[r.URL.Path] {
			next.ServeHTTP(w, r)
			return
		}
		if n := inFlight.Add(1); n > int64(limit) {
			inFlight.Add(-1)
			onShed()
			w.Header().Set("Retry-After", shedRetryAfter)
			wire.WriteError(w, http.StatusServiceUnavailable, "overloaded, retry later")
			return
		}
		defer inFlight.Add(-1)
		next.ServeHTTP(w, r)
	})
}

// withMaxBytes caps request bodies so a misbehaving client cannot stream
// an unbounded payload: override when positive, else the path's cap in
// postCaps. Paths without a cap take no body (the method policy turns
// their non-GET requests away).
func withMaxBytes(next http.Handler, postCaps map[string]int64, override int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// GET/HEAD bodies are never read by any handler, so skip the
		// per-request MaxBytesReader wrapper on those methods (it is one
		// allocation on the hot /predict path for a body nobody touches).
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			n := override
			if n <= 0 {
				n = postCaps[r.URL.Path]
			}
			r.Body = http.MaxBytesReader(w, r.Body, n)
		}
		next.ServeHTTP(w, r)
	})
}
