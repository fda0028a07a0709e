package fleet

import (
	"lumos5g/internal/obs"
)

// Router observability. The fleet registry uses fleet_* names, disjoint
// from the replicas' lumos_* names, so the /metrics rollup can merge
// both into one exposition without collisions.
//
// The audit identity the chaos tests enforce across the fleet:
//
//	served batch rows (fleet_batch_rows_total{outcome="served"})
//	  = Σ over replicas lumos_predict_tier_served_total{route="/predict/batch"}
//
// because every served row was computed by exactly one replica's batch
// handler, and a row whose shard failed never reached any replica.
type routerMetrics struct {
	reg *obs.Registry

	requests *obs.CounterVec // fleet_http_requests_total{route,code}
	latency  *obs.HistogramVec

	attempts  *obs.CounterVec // fleet_attempts_total{outcome}
	hedges    *obs.Counter    // fleet_hedges_total
	failovers *obs.Counter    // fleet_failovers_total

	batchRows  *obs.CounterVec // fleet_batch_rows_total{outcome}
	ingestRows *obs.CounterVec // fleet_ingest_rows_total{outcome}
	partials   *obs.Counter    // fleet_partial_responses_total

	probeFails   *obs.Counter // fleet_probe_failures_total
	rollupErrors *obs.Counter // fleet_rollup_scrape_failures_total
}

func newRouterMetrics(rt *Router) *routerMetrics {
	r := obs.NewRegistry()
	m := &routerMetrics{
		reg: r,
		requests: r.NewCounterVec("fleet_http_requests_total",
			"Router requests by route and status code.", "route", "code"),
		latency: r.NewHistogramVec("fleet_http_request_duration_seconds",
			"Router end-to-end request latency by route.", obs.DefLatencyBuckets, "route"),
		attempts: r.NewCounterVec("fleet_attempts_total",
			"Replica attempts by outcome: success (a 200, or a client error "+
				"every replica would repeat), error (counted against the "+
				"replica), shed (503 or 429 with Retry-After: the replica is "+
				"busy, a sibling is tried, its breaker is untouched), or "+
				"cancelled (the router abandoned it: the client left or a "+
				"hedge answered first; not counted against the replica).", "outcome"),
		hedges: r.NewCounter("fleet_hedges_total",
			"Hedged attempts launched because the previous one stalled."),
		failovers: r.NewCounter("fleet_failovers_total",
			"Queries answered by a replica other than the first candidate."),
		batchRows: r.NewCounterVec("fleet_batch_rows_total",
			"Batch rows by outcome: served by a shard, or failed (explicit "+
				"partial-result marker).", "outcome"),
		ingestRows: r.NewCounterVec("fleet_ingest_rows_total",
			"Routed ingest samples by outcome: accepted/rejected/dropped by "+
				"the owning shard's gate and queue, or failed (shard unreachable).", "outcome"),
		partials: r.NewCounter("fleet_partial_responses_total",
			"Fan-out responses that carried an explicit partial-result marker."),
		probeFails: r.NewCounter("fleet_probe_failures_total",
			"Health probes that found a replica unreachable or unhealthy."),
		rollupErrors: r.NewCounter("fleet_rollup_scrape_failures_total",
			"Replica /metrics scrapes that failed during a rollup."),
	}
	r.NewGaugeFunc("fleet_shards",
		"Shards in the current topology.",
		func() float64 {
			if t := rt.Topology(); t != nil {
				return float64(len(t.Shards))
			}
			return 0
		})
	r.NewGaugeFunc("fleet_replicas_down",
		"Replicas the router currently believes are down.",
		func() float64 {
			t := rt.Topology()
			if t == nil {
				return 0
			}
			var n int
			for _, rep := range t.replicas() {
				if rep.State() == StateDown {
					n++
				}
			}
			return float64(n)
		})
	return m
}
