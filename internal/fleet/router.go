package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/engine"
	"lumos5g/internal/obs"
	"lumos5g/internal/rng"
	"lumos5g/internal/wire"
)

// Router is the fleet's front door. It owns no model and no map — it
// quantizes each query to its partition key, picks the owning shard by
// rendezvous hash, and plays the availability game: hedging stalled
// attempts, breaking circuits on failing replicas, failing single
// predictions over across replicas and shards, and marking — never
// hiding — the holes a dead shard leaves in fan-out answers.
type Router struct {
	cfg    RouterConfig
	client *http.Client
	m      *routerMetrics

	topo atomic.Pointer[Topology]
	pb   *prober

	jmu sync.Mutex
	jit *rng.Source // jittered backoff; seeded for reproducible tests

	mux *http.ServeMux

	closeOnce sync.Once
}

// RouterConfig tunes the router's failure handling. Zero values select
// the documented defaults.
type RouterConfig struct {
	// HedgeDelay is how long the router waits on an attempt before
	// launching a concurrent hedge at the next candidate (default 50ms).
	HedgeDelay time.Duration
	// AttemptTimeout bounds one replica attempt end-to-end (default 2s).
	AttemptTimeout time.Duration
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// failure-triggered retries (defaults 5ms / 250ms). Jitter draws the
	// actual delay uniformly from [0.5, 1.5) × the current backoff.
	RetryBase time.Duration
	RetryMax  time.Duration
	// ProbeInterval is the health-prober poll period (default 250ms).
	ProbeInterval time.Duration
	// BreakerThreshold consecutive failures open a replica's circuit for
	// BreakerCooldown (defaults 3 / 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Seed seeds the backoff jitter (0 = a fixed default; tests pass
	// their own for reproducibility).
	Seed uint64
	// Client overrides the HTTP client used for replica traffic and
	// probes (default: a pooled client with sane per-host limits).
	Client *http.Client
}

func (c *RouterConfig) fill() {
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 5 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 250 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 0x10_5106 // any fixed value; jitter needs spread, not secrecy
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
	}
}

// NewRouter builds a router over the given topology and starts its
// health prober. Call Close to stop the prober.
func NewRouter(topo *Topology, cfg RouterConfig) *Router {
	cfg.fill()
	rt := &Router{cfg: cfg, client: cfg.Client, jit: rng.New(cfg.Seed), mux: http.NewServeMux()}
	rt.topo.Store(topo)
	rt.m = newRouterMetrics(rt)
	for _, sh := range topo.Shards {
		for _, rep := range sh.Replicas {
			rep.bk.threshold = int32(cfg.BreakerThreshold)
			rep.bk.cooldown = cfg.BreakerCooldown
		}
	}
	rt.mux.HandleFunc("/predict", rt.handlePredict)
	rt.mux.HandleFunc("/predict/batch", rt.handleBatch)
	rt.mux.HandleFunc("/ingest", rt.handleIngest)
	rt.mux.HandleFunc("/cells.json", rt.handleCells)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.pb = startProber(rt.Topology, rt.client, cfg.ProbeInterval, func(r *Replica, ok bool) {
		if !ok {
			rt.m.probeFails.Inc()
		}
	})
	return rt
}

// Close stops the health prober (joining its goroutine). The router
// keeps serving with its last-known replica states.
func (rt *Router) Close() { rt.closeOnce.Do(rt.pb.stop) }

// Topology returns the current membership generation.
func (rt *Router) Topology() *Topology { return rt.topo.Load() }

// SetTopology atomically installs a new membership generation.
// In-flight requests finish against the generation they started with;
// reuse Shard/Replica pointers for surviving members so their health
// and breaker state carry over.
func (rt *Router) SetTopology(t *Topology) {
	for _, sh := range t.Shards {
		for _, rep := range sh.Replicas {
			rep.bk.threshold = int32(rt.cfg.BreakerThreshold)
			rep.bk.cooldown = rt.cfg.BreakerCooldown
		}
	}
	rt.topo.Store(t)
}

// Metrics returns the router's own registry (fleet_* instruments).
func (rt *Router) Metrics() *obs.Registry { return rt.m.reg }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := r.URL.Path
	switch route {
	case "/predict", "/predict/batch", "/ingest", "/cells.json", "/healthz", "/metrics":
	default:
		route = "other"
	}
	sw := &codeWriter{ResponseWriter: w}
	start := time.Now()
	rt.mux.ServeHTTP(sw, r)
	rt.m.requests.With(route, strconv.Itoa(sw.status())).Inc()
	rt.m.latency.With(route).Observe(time.Since(start).Seconds())
}

// codeWriter captures the status the handler sent.
type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *codeWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// jitter draws the actual backoff delay: uniform in [0.5, 1.5) × d,
// the same spread the netem client uses, so synchronized retries from
// many queries against one recovering replica de-correlate.
func (rt *Router) jitter(d time.Duration) time.Duration {
	rt.jmu.Lock()
	f := rt.jit.Range(0.5, 1.5)
	rt.jmu.Unlock()
	return time.Duration(f * float64(d))
}

// candidate is one (shard, replica) routing choice.
type candidate struct {
	shard *Shard
	rep   *Replica
}

// predictCandidates flattens the failover order for one key: the owning
// shard's replicas first (best replica first), then each fallback
// shard's. A query only leaves its owner shard when every replica there
// has failed — cross-shard answers are degraded (the fallback shard
// lacks the cell's map slice) but they are answers.
func (rt *Router) predictCandidates(k engine.Key) []candidate {
	topo := rt.Topology()
	if topo == nil {
		return nil
	}
	var cands []candidate
	for _, sh := range topo.RankShards(k) {
		for _, rep := range sh.candidates() {
			cands = append(cands, candidate{shard: sh, rep: rep})
		}
	}
	return cands
}

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	cand       candidate
	status     int
	body       []byte
	header     http.Header
	retryAfter bool
	err        error
}

// ok reports a servable success.
func (a attemptResult) ok() bool { return a.err == nil && a.status == http.StatusOK }

// definitive reports a client-error answer that every replica would
// repeat (4xx): retrying elsewhere cannot change it, forward as-is.
func (a attemptResult) definitive() bool {
	return a.err == nil && a.status >= 400 && a.status < 500
}

// tryGET runs one replica attempt for a GET route, feeding the breaker
// and (on transport failure) the replica state.
func (rt *Router) tryGET(ctx context.Context, c candidate, path, rawQuery string) attemptResult {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	url := c.rep.URL + path
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return attemptResult{cand: c, err: err}
	}
	resp, err := rt.client.Do(req)
	return rt.finishAttempt(c, resp, err)
}

// tryPOST runs one replica attempt with a JSON body.
func (rt *Router) tryPOST(ctx context.Context, c candidate, path string, body []byte) attemptResult {
	return rt.tryPOSTAs(ctx, c, path, body, "application/json", "")
}

// tryPOSTAs runs one replica attempt with an explicit request media
// type and, when accept is non-empty, an Accept header asking the
// replica for that response encoding.
func (rt *Router) tryPOSTAs(ctx context.Context, c candidate, path string, body []byte, contentType, accept string) attemptResult {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.rep.URL+path, bytes.NewReader(body))
	if err != nil {
		return attemptResult{cand: c, err: err}
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := rt.client.Do(req)
	return rt.finishAttempt(c, resp, err)
}

func (rt *Router) finishAttempt(c candidate, resp *http.Response, err error) attemptResult {
	if err != nil {
		// Transport failure: the replica is unreachable or stalled. Mark
		// it down now instead of waiting a probe period; the prober
		// promotes it back the moment it answers a /healthz.
		c.rep.bk.failure()
		c.rep.setState(StateDown)
		rt.m.attempts.With("error").Inc()
		return attemptResult{cand: c, err: err}
	}
	defer resp.Body.Close()
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if rerr != nil {
		c.rep.bk.failure()
		rt.m.attempts.With("error").Inc()
		return attemptResult{cand: c, err: rerr}
	}
	res := attemptResult{cand: c, status: resp.StatusCode, body: body, header: resp.Header,
		retryAfter: resp.Header.Get("Retry-After") != ""}
	switch {
	case res.ok(), res.definitive():
		c.rep.bk.success()
		rt.m.attempts.With("success").Inc()
	case res.status == http.StatusServiceUnavailable && res.retryAfter:
		// A shed is backpressure, not brokenness: retry elsewhere but do
		// not poison the breaker — the replica is alive and explicit.
		rt.m.attempts.With("shed").Inc()
	default:
		c.rep.bk.failure()
		rt.m.attempts.With("error").Inc()
	}
	return res
}

// handlePredict is the single-query route: validate, quantize, then
// run the hedged failover loop over the candidate list until someone
// answers. The design goal is zero client-visible failures while any
// replica anywhere can still serve.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	var q wire.QueryParams
	if err := wire.ParseQuery(r.URL.RawQuery, &q); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	cands := rt.predictCandidates(RouteKey(q.Lat, q.Lon, q.Speed, q.Bearing))
	if len(cands) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	rt.hedgedGET(w, r, cands, "/predict", r.URL.RawQuery)
}

// hedgedGET is the failover engine shared by /predict: it walks the
// candidate list launching attempts — the next one fires early when the
// current one stalls past HedgeDelay (hedge), immediately-ish after a
// failure (retry, behind capped jittered backoff) — and forwards the
// first success. First 4xx forwards too: it is the same answer
// everywhere. Only when every candidate has failed does the client see
// a 503, with Retry-After when the fleet was shedding rather than dead.
func (rt *Router) hedgedGET(w http.ResponseWriter, r *http.Request, cands []candidate, path, rawQuery string) {
	ctx := r.Context()
	results := make(chan attemptResult, len(cands))
	next, inFlight := 0, 0
	launch := func() bool {
		if next >= len(cands) {
			return false
		}
		c := cands[next]
		next++
		inFlight++
		go func() { results <- rt.tryGET(ctx, c, path, rawQuery) }()
		return true
	}
	launch()

	hedge := time.NewTimer(rt.cfg.HedgeDelay)
	defer hedge.Stop()
	var retryTimer *time.Timer
	defer func() {
		if retryTimer != nil {
			retryTimer.Stop()
		}
	}()
	var retryC <-chan time.Time
	delay := rt.cfg.RetryBase
	sawShed := false

	for {
		select {
		case <-ctx.Done():
			wire.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		case <-hedge.C:
			if launch() {
				rt.m.hedges.Inc()
				hedge.Reset(rt.cfg.HedgeDelay)
			}
		case <-retryC:
			retryC = nil
			launch()
		case res := <-results:
			inFlight--
			if res.ok() {
				if res.cand.rep != cands[0].rep {
					rt.m.failovers.Inc()
				}
				wire.SetJSONType(w)
				w.Header().Set("X-Fleet-Shard", res.cand.shard.ID)
				w.Header().Set("X-Fleet-Replica", res.cand.rep.ID)
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(res.body)
				return
			}
			if res.definitive() {
				if ct := res.header.Get("Content-Type"); ct != "" {
					w.Header().Set("Content-Type", ct)
				}
				w.WriteHeader(res.status)
				_, _ = w.Write(res.body)
				return
			}
			if res.retryAfter {
				sawShed = true
			}
			if next < len(cands) {
				if retryC == nil {
					retryTimer = time.NewTimer(rt.jitter(delay))
					retryC = retryTimer.C
					if delay *= 2; delay > rt.cfg.RetryMax {
						delay = rt.cfg.RetryMax
					}
				}
			} else if inFlight == 0 {
				if sawShed {
					w.Header().Set("Retry-After", "1")
				}
				wire.WriteError(w, http.StatusServiceUnavailable, "no replica could serve the query")
				return
			}
		}
	}
}
