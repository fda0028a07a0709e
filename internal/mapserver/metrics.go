package mapserver

// Serving-path observability. One obs.Registry per Server owns every
// counter the serving path produces; /metrics renders it as Prometheus
// text and /healthz reads the same instruments back (the
// single-bookkeeping rule — there is no second tally to drift).
//
// Counter ownership is arranged so an exact audit identity holds for
// the single-prediction route:
//
//	lumos_http_requests_total{route="/predict",code="200"}
//	  = Σ_tier lumos_predict_tier_served_total{route="/predict",tier}
//	  + lumos_predict_cache_hits_total
//	  + lumos_predict_cache_uncached_total
//
// because every 200 from /predict is exactly one of: a model walk the
// handler published (tier_served), a cache hit, or an uncached
// recompute behind an abandoned entry. The handler is the only writer
// of all three, in the same request that the middleware counts.

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/obs"
	"lumos5g/internal/wire"
)

// serverMetrics is the instrument set of one Server.
type serverMetrics struct {
	reg *obs.Registry

	// Request path (written by withObs).
	requests *obs.CounterVec   // lumos_http_requests_total{route,code}
	latency  *obs.HistogramVec // lumos_http_request_duration_seconds{route}
	inflight *obs.GaugeVec     // lumos_http_in_flight_requests{route}

	// Prediction serving (written by the predict handlers).
	tierServed  *obs.CounterVec   // lumos_predict_tier_served_total{route,tier}
	tierLatency *obs.HistogramVec // lumos_predict_tier_duration_seconds{tier}
	nonFinite   *obs.Counter      // lumos_predict_nonfinite_total
	shed        *obs.Counter      // lumos_shed_total (written by withShed)

	// Prediction cache (hit/miss/uncached written by the handler on the
	// cache.run outcome; evictions/abandoned by the cache's hooks).
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheUncached  *obs.Counter
	cacheAbandoned *obs.Counter

	// Model lifecycle (written by SetChain / ReloadModelFile).
	reloads         *obs.Counter
	reloadsRejected *obs.Counter

	// Child-instrument caches for the request path. obs vectors key
	// children on a joined label string, so every With() on a
	// multi-label vector allocates the key; the request path instead
	// resolves its children once per (route, code) / route and reuses
	// the cached pointers (obs instruments are safe for concurrent use).
	childMu     sync.RWMutex
	reqChildren map[routeCode]*obs.Counter
	routeObs    map[string]*routeInstruments
}

// routeCode keys the cached lumos_http_requests_total children.
type routeCode struct {
	route string
	code  int
}

// routeInstruments holds one route's per-request instruments, resolved
// once so the hot path does no vector lookups.
type routeInstruments struct {
	latency  *obs.Histogram
	inflight *obs.Gauge
}

// requestCounter returns the requests_total child for (route, code),
// resolving and caching it on first use. Steady-state lookups are a
// read-locked map probe with no allocations.
func (m *serverMetrics) requestCounter(route string, code int) *obs.Counter {
	k := routeCode{route: route, code: code}
	m.childMu.RLock()
	c := m.reqChildren[k]
	m.childMu.RUnlock()
	if c != nil {
		return c
	}
	c = m.requests.With(route, wire.StatusLabel(code))
	m.childMu.Lock()
	m.reqChildren[k] = c
	m.childMu.Unlock()
	return c
}

// routeInstruments returns the cached latency/in-flight instruments for
// a (normalized) route.
func (m *serverMetrics) routeInstruments(route string) *routeInstruments {
	m.childMu.RLock()
	ri := m.routeObs[route]
	m.childMu.RUnlock()
	if ri != nil {
		return ri
	}
	ri = &routeInstruments{latency: m.latency.With(route), inflight: m.inflight.With(route)}
	m.childMu.Lock()
	m.routeObs[route] = ri
	m.childMu.Unlock()
	return ri
}

func newServerMetrics(s *Server) *serverMetrics {
	r := obs.NewRegistry()
	m := &serverMetrics{
		reg: r,
		requests: r.NewCounterVec("lumos_http_requests_total",
			"HTTP requests by route and status code.", "route", "code"),
		latency: r.NewHistogramVec("lumos_http_request_duration_seconds",
			"End-to-end request latency by route.", obs.DefLatencyBuckets, "route"),
		inflight: r.NewGaugeVec("lumos_http_in_flight_requests",
			"Requests currently being served, by route.", "route"),
		tierServed: r.NewCounterVec("lumos_predict_tier_served_total",
			"Predictions published by the handler, by route and serving tier "+
				"(chain tier name, or map-cell/map-mean for model-less serving).",
			"route", "tier"),
		tierLatency: r.NewHistogramVec("lumos_predict_tier_duration_seconds",
			"Fallback-chain walk latency by the tier that answered.",
			obs.DefLatencyBuckets, "tier"),
		nonFinite: r.NewCounter("lumos_predict_nonfinite_total",
			"Predictions rejected before the wire because the value was NaN or infinite."),
		shed: r.NewCounter("lumos_shed_total",
			"Requests shed with 503 because in-flight work exceeded the configured bound."),
		cacheHits: r.NewCounter("lumos_predict_cache_hits_total",
			"Prediction-cache hits (no model walk)."),
		cacheMisses: r.NewCounter("lumos_predict_cache_misses_total",
			"Prediction-cache misses computed and stored by a leader."),
		cacheEvictions: r.NewCounter("lumos_predict_cache_evictions_total",
			"Prediction-cache LRU evictions."),
		cacheUncached: r.NewCounter("lumos_predict_cache_uncached_total",
			"Predictions recomputed uncached behind an abandoned cache entry."),
		cacheAbandoned: r.NewCounter("lumos_predict_cache_abandoned_total",
			"Cache entries abandoned because the leader failed mid-compute."),
		reloads: r.NewCounter("lumos_model_reloads_total",
			"Successful model hot swaps."),
		reloadsRejected: r.NewCounter("lumos_model_reloads_rejected_total",
			"Model artifacts rejected on reload (previous model kept serving)."),
		reqChildren: map[routeCode]*obs.Counter{},
		routeObs:    map[string]*routeInstruments{},
	}
	r.NewGaugeFunc("lumos_predict_cache_entries",
		"Entries in the current prediction-cache generation.",
		func() float64 { return float64(s.cacheEntries()) })
	r.NewGaugeFunc("lumos_map_cells",
		"Cells in the published throughput map.",
		func() float64 { return float64(len(s.tm.Cells)) })
	r.NewGaugeFunc("lumos_model_serving",
		"1 when a fallback chain is serving, 0 when the server is map-only.",
		func() float64 {
			if s.Chain() != nil {
				return 1
			}
			return 0
		})
	return m
}

// knownRoutes is the closed route label set. Unknown paths collapse to
// "other" so a URL-scanning client cannot explode the label cardinality.
var knownRoutes = map[string]string{
	"/healthz":       "/healthz",
	"/map.svg":       "/map.svg",
	"/cells.json":    "/cells.json",
	"/model":         "/model",
	"/predict":       "/predict",
	"/predict/batch": "/predict/batch",
	"/ingest":        "/ingest",
	"/metrics":       "/metrics",
}

func normalizeRoute(path string) string {
	if r, ok := knownRoutes[path]; ok {
		return r
	}
	return "other"
}

// reqIDSeq numbers requests within the process; the prefix (process
// start time in base36) keeps IDs from different server lifetimes
// distinct in aggregated logs.
var (
	reqIDSeq    atomic.Uint64
	reqIDPrefix = strconv.FormatInt(time.Now().UnixNano(), 36)
)

func nextRequestID() string {
	return reqIDPrefix + "-" + strconv.FormatUint(reqIDSeq.Add(1), 10)
}

// reqLog carries one request's log annotations from the handler back to
// the access-log writer. The mutex matters: under http.TimeoutHandler
// the handler runs on a separate goroutine, so an annotation can race
// the timed-out request's log write.
type reqLog struct {
	id string

	mu     sync.Mutex
	tier   int // -2 until annotated
	source string
	cache  string
}

type reqLogKey struct{}

// requestLogFrom returns the request's log record, nil when request
// logging is disabled.
func requestLogFrom(ctx context.Context) *reqLog {
	lg, _ := ctx.Value(reqLogKey{}).(*reqLog)
	return lg
}

// annotatePredict records which tier answered and how the cache was
// involved, for the structured request log.
func annotatePredict(ctx context.Context, tier int, source, cache string) {
	lg := requestLogFrom(ctx)
	if lg == nil {
		return
	}
	lg.mu.Lock()
	lg.tier, lg.source, lg.cache = tier, source, cache
	lg.mu.Unlock()
}

// accessLogLine is the JSON wire form of one request-log line.
type accessLogLine struct {
	Time   string  `json:"time"`
	ID     string  `json:"id"`
	Method string  `json:"method"`
	Path   string  `json:"path"`
	Query  string  `json:"query,omitempty"`
	Status int     `json:"status"`
	DurMS  float64 `json:"duration_ms"`
	Bytes  int64   `json:"bytes"`
	Tier   *int    `json:"tier,omitempty"`
	Source string  `json:"source,omitempty"`
	Cache  string  `json:"cache,omitempty"`
}

// swPool recycles the wire.StatusWriter wrappers of withObs. A wrapper is
// only ever referenced synchronously below withObs in the middleware
// stack (http.TimeoutHandler hands its inner handler a separate
// buffered writer), so returning it to the pool after the counters are
// recorded is safe.
var swPool = sync.Pool{New: func() any { return new(wire.StatusWriter) }}

// withObs is the outermost middleware: it counts and times every
// request (including the 500s and 503s manufactured by the recovery and
// timeout layers beneath it), threads a request ID through the context,
// and emits one structured JSON log line per request when logging is on.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := s.m.routeInstruments(normalizeRoute(r.URL.Path))
		ri.inflight.Add(1)
		defer ri.inflight.Add(-1)

		sw := swPool.Get().(*wire.StatusWriter)
		sw.ResponseWriter, sw.Code, sw.Bytes = w, 0, 0
		var lg *reqLog
		if s.logw != nil {
			lg = &reqLog{id: nextRequestID(), tier: -2}
			w.Header().Set("X-Request-Id", lg.id)
			r = r.WithContext(context.WithValue(r.Context(), reqLogKey{}, lg))
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)

		code, bytes := sw.Status(), sw.Bytes
		sw.ResponseWriter = nil
		swPool.Put(sw)
		s.m.requestCounter(normalizeRoute(r.URL.Path), code).Inc()
		ri.latency.Observe(dur.Seconds())
		if lg != nil {
			s.writeAccessLog(lg, r, code, bytes, dur)
		}
	})
}

func (s *Server) writeAccessLog(lg *reqLog, r *http.Request, code int, bytes int64, dur time.Duration) {
	line := accessLogLine{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		ID:     lg.id,
		Method: r.Method,
		Path:   r.URL.Path,
		Query:  r.URL.RawQuery,
		Status: code,
		DurMS:  float64(dur) / float64(time.Millisecond),
		Bytes:  bytes,
	}
	lg.mu.Lock()
	if lg.tier != -2 {
		tier := lg.tier
		line.Tier, line.Source, line.Cache = &tier, lg.source, lg.cache
	}
	lg.mu.Unlock()
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logmu.Lock()
	_, _ = s.logw.Write(b)
	s.logmu.Unlock()
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.m.reg.WritePrometheus(w)
}

// Metrics returns the server's observability registry, for embedding
// servers that want to render it elsewhere or register their own
// instruments alongside.
func (s *Server) Metrics() *obs.Registry { return s.m.reg }

// RouteLatencyQuantile estimates the q-quantile (0..1) of the
// end-to-end request latency for one route, in seconds. NaN until the
// route has served at least one request.
func (s *Server) RouteLatencyQuantile(route string, q float64) float64 {
	return s.m.latency.With(normalizeRoute(route)).Quantile(q)
}

// cacheEntries reads the current cache generation's size (0 when
// caching is disabled or no model serves).
func (s *Server) cacheEntries() int {
	s.mu.RLock()
	cache := s.cache
	s.mu.RUnlock()
	if cache == nil {
		return 0
	}
	return cache.size()
}
