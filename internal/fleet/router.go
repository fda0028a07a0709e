package fleet

import (
	"net/http"
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

// Close stops the health prober (joining its goroutine) and closes the
// idle replica connections: a pooled connection that was dialed but
// never carried a request would otherwise hold a replica's graceful
// shutdown for 5 s. The router keeps serving with its last-known
// replica states.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		rt.pb.stop()
		rt.client.CloseIdleConnections()
	})
}

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
	sw := &wire.StatusWriter{ResponseWriter: w}
	start := time.Now()
	rt.mux.ServeHTTP(sw, r)
	rt.m.requests.With(route, wire.StatusLabel(sw.Status())).Inc()
	rt.m.latency.With(route).Observe(time.Since(start).Seconds())
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

// candidatesOf flattens the failover order over shards, in the order
// given: each shard's replicas, best first.
func candidatesOf(shards ...*Shard) []candidate {
	var cands []candidate
	for _, sh := range shards {
		for _, rep := range sh.candidates() {
			cands = append(cands, candidate{shard: sh, rep: rep})
		}
	}
	return cands
}

// predictCandidates is the failover order for one key: the owning
// shard's replicas first, then each fallback shard's. A query only
// leaves its owner shard when every replica there has failed —
// cross-shard answers are degraded (the fallback shard lacks the cell's
// map slice) but they are answers.
func (rt *Router) predictCandidates(k engine.Key) []candidate {
	topo := rt.Topology()
	if topo == nil {
		return nil
	}
	return candidatesOf(topo.RankShards(k)...)
}

// handlePredict is the single-query route: validate, quantize, then
// walk every shard's replicas, owner first, until someone answers. The
// design goal is zero client-visible failures while any replica
// anywhere can still serve.
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
	res, busy := rt.failover(r.Context(), cands, call{method: http.MethodGet, path: "/predict", rawQuery: r.URL.RawQuery})
	switch res.out {
	case outOK:
		wire.SetJSONType(w)
		w.Header().Set("X-Fleet-Shard", res.cand.shard.ID)
		w.Header().Set("X-Fleet-Replica", res.cand.rep.ID)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res.body)
	case outDefinitive:
		// A client error every replica would repeat: forward it as-is.
		if ct := res.header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
	case outCancelled:
		wire.WriteError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		if busy {
			w.Header().Set("Retry-After", "1")
		}
		wire.WriteError(w, http.StatusServiceUnavailable, "no replica could serve the query")
	}
}
