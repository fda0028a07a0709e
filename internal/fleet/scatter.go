package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"

	"lumos5g/internal/obs"
	"lumos5g/internal/par"
	"lumos5g/internal/wire"
)

// Fan-out routes. The contract that matters here is explicit
// partiality: a batch or map-wide query touching a dead shard comes
// back with that shard's portion marked failed — per-row provenance,
// a top-level partial flag — and everything else served. Never a
// silent hole (a row quietly missing), never a hang (every sub-request
// is bounded by the attempt timeout), and no cross-shard failover for
// shard-owned data: a fallback shard does not hold the dead shard's
// map slice, so pretending it can answer would be a wrong answer with
// a healthy status code.

// BatchRow is one row of the fleet batch answer: the replica's
// prediction plus shard provenance, or an explicit failure marker.
// Mbps is a pointer so a failed row is a JSON null — absence you can
// see — rather than a fake zero. P10/P50/P90 are present only when the
// batch negotiated intervals (and the row served), so interval-off
// fleet answers keep the historical field set.
type BatchRow struct {
	Mbps       *float64 `json:"mbps"`
	P10        *float64 `json:"p10,omitempty"`
	P50        *float64 `json:"p50,omitempty"`
	P90        *float64 `json:"p90,omitempty"`
	Calibrated *bool    `json:"calibrated,omitempty"`
	Class      string   `json:"class,omitempty"`
	Source     string   `json:"source,omitempty"`
	Tier       int      `json:"tier"`
	Degraded   bool     `json:"degraded"`
	Missing    []string `json:"missing,omitempty"`
	Shard      string   `json:"shard"`
	Error      string   `json:"error,omitempty"`
}

// BatchResponse is the fleet /predict/batch wire form.
type BatchResponse struct {
	Partial bool       `json:"partial"`
	Rows    []BatchRow `json:"rows"`
}

// groupByShard partitions the indices [0, n) by owning shard, shards in
// first-seen order, for the index-disjoint fan-outs below.
func groupByShard(n int, owner func(i int) *Shard) (shards []*Shard, groups [][]int) {
	pos := make(map[*Shard]int)
	for i := 0; i < n; i++ {
		sh := owner(i)
		p, seen := pos[sh]
		if !seen {
			p = len(shards)
			pos[sh] = p
			shards = append(shards, sh)
			groups = append(groups, nil)
		}
		groups[p] = append(groups[p], i)
	}
	return shards, groups
}

// handleBatch scatters the batch across owning shards and gathers an
// explicitly-partial answer. Sub-batches forward to replicas as binary
// frames regardless of the client encoding — the replicas always speak
// the wire format, and the columnar frame is the cheap path. The client
// gets a binary response only when it asked (Accept) and the answer is
// complete: a partial answer carries per-row failure markers (null
// mbps, shard provenance, error strings) the binary frame cannot
// represent, so it falls back to the JSON BatchResponse envelope.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		wire.WriteError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	topo := rt.Topology()
	if topo == nil || len(topo.Shards) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBatchBytes)
	// The replicas' own decoder: a bad row or an oversized batch is
	// rejected here, instead of failing one shard's whole sub-batch
	// downstream.
	queries, err := wire.DecodeBatch(r.Header.Get("Content-Type"), r.Body)
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Interval negotiation: an interval Accept or ?intervals=1 asks the
	// replicas for the v2 frame (DecodeResults reads either version, so
	// the gather loop needs no flavor plumbing).
	accept := r.Header.Get("Accept")
	wantIval := accept == wire.ContentTypeIntervals || wire.WantIntervals(r.URL.RawQuery)
	subAccept := wire.ContentType
	if wantIval {
		subAccept = wire.ContentTypeIntervals
	}

	// Scatter by owning shard (rendezvous on the cell). The gather keeps
	// the answer type: one wire.Result per row, plus its owning shard
	// and, for rows of a failed shard, the failure reason. BatchRows
	// exist only for the JSON envelope.
	shards, groups := groupByShard(len(queries), func(i int) *Shard {
		return topo.Owner(RouteKey(queries[i].Lat, queries[i].Lon, queries[i].Speed, queries[i].Bearing))
	})
	results := make([]wire.Result, len(queries))
	shardOf := make([]string, len(queries))
	failed := make([]string, len(queries)) // "" = served
	shardFailed := make([]bool, len(shards))
	par.Do(len(shards), len(shards), func(s int) {
		sh, idxs := shards[s], groups[s]
		sub := make([]wire.Query, len(idxs))
		for j, i := range idxs {
			sub[j] = queries[i]
			shardOf[i] = sh.ID
		}
		res, _ := rt.failover(r.Context(), candidatesOf(sh), call{method: http.MethodPost, path: "/predict/batch",
			body: wire.AppendQueries(nil, sub), contentType: wire.ContentType, accept: subAccept})
		var served []wire.Result
		ok := res.out == outOK
		if ok {
			var derr error
			served, derr = wire.DecodeResults(res.body, len(idxs))
			ok = derr == nil && len(served) == len(idxs)
		}
		if !ok {
			shardFailed[s] = true
			reason, missing := shardFailureReason(sh, res), []string{"shard:" + sh.ID}
			for _, i := range idxs {
				results[i] = wire.Result{Tier: -1, Degraded: true, Missing: missing}
				failed[i] = reason
			}
			rt.m.batchRows.With("failed").Add(uint64(len(idxs)))
			return
		}
		for j, i := range idxs {
			results[i] = served[j]
		}
		rt.m.batchRows.With("served").Add(uint64(len(idxs)))
	})
	partial := slices.Contains(shardFailed, true)
	if partial {
		rt.m.partials.Inc()
	}
	if !partial && (accept == wire.ContentType || accept == wire.ContentTypeIntervals) {
		var frame []byte
		var err error
		ct := wire.ContentType
		if accept == wire.ContentTypeIntervals {
			frame, err = wire.AppendResultsIntervals(nil, results)
			ct = wire.ContentTypeIntervals
		} else {
			frame, err = wire.AppendResults(nil, results)
		}
		if err == nil {
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(frame)
			return
		}
		// An unencodable merge (string-table overflow) falls back to
		// the JSON envelope rather than failing the whole batch.
	}
	rows := make([]BatchRow, len(results))
	for i := range results {
		rows[i] = batchRow(&results[i], shardOf[i], failed[i], wantIval)
	}
	wire.WriteJSON(w, http.StatusOK, BatchResponse{Partial: partial, Rows: rows})
}

// batchRow renders one gathered row for the JSON envelope. A served row
// carries its prediction, and its band when the batch negotiated
// intervals; a failed row (non-empty reason) keeps mbps null and
// carries the shard failure marker and reason. The pointers alias r,
// which must outlive the encoding.
func batchRow(r *wire.Result, shard, reason string, wantIval bool) BatchRow {
	row := BatchRow{Tier: r.Tier, Degraded: r.Degraded, Missing: r.Missing, Shard: shard, Error: reason}
	if reason != "" {
		return row
	}
	row.Mbps, row.Class, row.Source = &r.Mbps, r.Class, r.Source
	if wantIval {
		row.P10, row.P50, row.P90, row.Calibrated = &r.P10, &r.Mbps, &r.P90, &r.HasInterval
	}
	return row
}

func shardFailureReason(sh *Shard, res attemptResult) string {
	switch {
	case res.err != nil:
		return fmt.Sprintf("shard %s unavailable: %v", sh.ID, res.err)
	case res.status != 0 && res.status != http.StatusOK:
		return fmt.Sprintf("shard %s answered %d", sh.ID, res.status)
	default:
		return fmt.Sprintf("shard %s returned an unusable answer", sh.ID)
	}
}

// cellJSON mirrors one replica /cells.json element; the router merges
// without reinterpreting, so raw messages suffice.
type cellJSON = json.RawMessage

// CellsResponse is the fleet map-wide query: every live shard's cells
// merged, with the shards that could not answer listed instead of
// silently absent.
type CellsResponse struct {
	Partial bool       `json:"partial"`
	Missing []string   `json:"missing,omitempty"`
	Cells   []cellJSON `json:"cells"`
}

// handleCells scatters the map-wide cell dump to every shard and merges.
func (rt *Router) handleCells(w http.ResponseWriter, r *http.Request) {
	topo := rt.Topology()
	if topo == nil || len(topo.Shards) == 0 {
		wire.WriteError(w, http.StatusServiceUnavailable, "no shards in topology")
		return
	}
	n := len(topo.Shards)
	cells := make([][]cellJSON, n)
	failed := make([]bool, n)
	par.Do(n, n, func(i int) {
		res, _ := rt.failover(r.Context(), candidatesOf(topo.Shards[i]), call{method: http.MethodGet, path: "/cells.json"})
		failed[i] = res.out != outOK || json.Unmarshal(res.body, &cells[i]) != nil
	})

	resp := CellsResponse{Cells: []cellJSON{}}
	for i, sh := range topo.Shards {
		if failed[i] {
			resp.Partial = true
			resp.Missing = append(resp.Missing, sh.ID)
			continue
		}
		resp.Cells = append(resp.Cells, cells[i]...)
	}
	sort.Strings(resp.Missing)
	if resp.Partial {
		rt.m.partials.Inc()
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// fleetHealth is the router /healthz wire form.
type fleetHealth struct {
	OK     bool          `json:"ok"`
	Shards []shardHealth `json:"shards"`
}

type shardHealth struct {
	ID       string          `json:"id"`
	Draining bool            `json:"draining"`
	OK       bool            `json:"ok"` // at least one replica not down
	Replicas []replicaHealth `json:"replicas"`
}

type replicaHealth struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
}

// handleHealth reports the router's view of the fleet: ok while every
// non-draining shard still has a routable replica.
func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	topo := rt.Topology()
	h := fleetHealth{OK: true}
	if topo == nil {
		h.OK = false
		wire.WriteJSON(w, http.StatusOK, h)
		return
	}
	for _, sh := range topo.Shards {
		shh := shardHealth{ID: sh.ID, Draining: sh.Draining()}
		for _, rep := range sh.Replicas {
			shh.Replicas = append(shh.Replicas, replicaHealth{ID: rep.ID, URL: rep.URL, State: rep.State().String()})
			if rep.State() != StateDown {
				shh.OK = true
			}
		}
		if !shh.OK && !shh.Draining {
			h.OK = false
		}
		h.Shards = append(h.Shards, shh)
	}
	wire.WriteJSON(w, http.StatusOK, h)
}

// handleMetrics serves the router's own fleet_* registry followed by
// the live rollup of every replica's lumos_* exposition, summed
// point-wise by series. Replicas that fail to scrape are skipped and
// counted (fleet_rollup_scrape_failures_total) — a partial rollup over
// a half-dead fleet is still a rollup.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	_ = rt.m.reg.WritePrometheus(w)

	topo := rt.Topology()
	if topo == nil {
		return
	}
	reps := topo.replicas()
	scrapes := make([]attemptResult, len(reps))
	par.Do(len(reps), len(reps), func(i int) {
		scrapes[i] = rt.attempt(r.Context(), candidate{rep: reps[i]}, call{method: http.MethodGet, path: "/metrics"})
	})

	ru := newRollup()
	for _, sc := range scrapes {
		if sc.out != outOK {
			rt.m.rollupErrors.Inc()
			continue
		}
		_ = ru.add(bytes.NewReader(sc.body))
	}
	_ = ru.write(w)
}
