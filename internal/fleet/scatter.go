package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"lumos5g/internal/obs"
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

// shardTry walks one shard's replicas in candidate order until one
// serves, with the same backoff discipline as the single-query path but
// no cross-shard failover.
func (rt *Router) shardTry(ctx context.Context, sh *Shard, attempt func(candidate) attemptResult) attemptResult {
	cands := sh.candidates()
	if len(cands) == 0 {
		return attemptResult{err: fmt.Errorf("shard %s has no replicas", sh.ID)}
	}
	delay := rt.cfg.RetryBase
	var last attemptResult
	for i, rep := range cands {
		if i > 0 {
			if !sleepCtx(ctx, rt.jitter(delay)) {
				return last
			}
			if delay *= 2; delay > rt.cfg.RetryMax {
				delay = rt.cfg.RetryMax
			}
		}
		last = attempt(candidate{shard: sh, rep: rep})
		if last.ok() || last.definitive() {
			return last
		}
	}
	return last
}

// sleepCtx sleeps d unless ctx ends first; reports whether it slept out.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
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
	r.Body = http.MaxBytesReader(w, r.Body, 16<<20)
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

	// Group row indices by owning shard (rendezvous on the cell). The
	// gather keeps the answer type: one wire.Result per row, plus its
	// owning shard and, for rows of a failed shard, the failure reason.
	// BatchRows exist only for the JSON envelope.
	byShard := make(map[*Shard][]int)
	shardOf := make([]string, len(queries))
	for i, q := range queries {
		k := RouteKey(q.Lat, q.Lon, q.Speed, q.Bearing)
		sh := topo.Owner(k)
		byShard[sh] = append(byShard[sh], i)
		shardOf[i] = sh.ID
	}

	results := make([]wire.Result, len(queries))
	failed := make([]string, len(queries)) // "" = served

	var mu sync.Mutex // guards partial; results are index-disjoint per shard
	partial := false
	var wg sync.WaitGroup
	for sh, idxs := range byShard {
		wg.Add(1)
		go func(sh *Shard, idxs []int) {
			defer wg.Done()
			sub := make([]wire.Query, len(idxs))
			for j, i := range idxs {
				sub[j] = queries[i]
			}
			body := wire.AppendQueries(nil, sub)
			res := rt.shardTry(r.Context(), sh, func(c candidate) attemptResult {
				return rt.tryPOSTAs(r.Context(), c, "/predict/batch", body,
					wire.ContentType, subAccept)
			})
			var served []wire.Result
			ok := res.ok()
			if ok {
				var err error
				served, err = wire.DecodeResults(res.body, len(idxs))
				if err != nil || len(served) != len(idxs) {
					ok = false
				}
			}
			if !ok {
				reason := shardFailureReason(sh, res)
				for _, i := range idxs {
					results[i] = wire.Result{Tier: -1, Degraded: true, Missing: []string{"shard:" + sh.ID}}
					failed[i] = reason
					rt.m.batchRows.With("failed").Inc()
				}
				mu.Lock()
				partial = true
				mu.Unlock()
				return
			}
			for j, i := range idxs {
				results[i] = served[j]
				rt.m.batchRows.With("served").Inc()
			}
		}(sh, idxs)
	}
	wg.Wait()

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
	type shardCells struct {
		id    string
		cells []cellJSON
		err   error
	}
	out := make([]shardCells, len(topo.Shards))
	var wg sync.WaitGroup
	for i, sh := range topo.Shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			res := rt.shardTry(r.Context(), sh, func(c candidate) attemptResult {
				return rt.tryGET(r.Context(), c, "/cells.json", "")
			})
			if !res.ok() {
				out[i] = shardCells{id: sh.ID, err: fmt.Errorf("%s", shardFailureReason(sh, res))}
				return
			}
			var cells []cellJSON
			if err := json.Unmarshal(res.body, &cells); err != nil {
				out[i] = shardCells{id: sh.ID, err: fmt.Errorf("shard %s: undecodable cells", sh.ID)}
				return
			}
			out[i] = shardCells{id: sh.ID, cells: cells}
		}(i, sh)
	}
	wg.Wait()

	resp := CellsResponse{Cells: []cellJSON{}}
	for _, sc := range out {
		if sc.err != nil {
			resp.Partial = true
			resp.Missing = append(resp.Missing, sc.id)
			continue
		}
		resp.Cells = append(resp.Cells, sc.cells...)
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
	type scrape struct {
		body []byte
		err  error
	}
	var reps []*Replica
	for _, sh := range topo.Shards {
		reps = append(reps, sh.Replicas...)
	}
	scrapes := make([]scrape, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep *Replica) {
			defer wg.Done()
			res := rt.tryGET(r.Context(), candidate{rep: rep, shard: &Shard{}}, "/metrics", "")
			if !res.ok() {
				scrapes[i] = scrape{err: res.err}
				if res.err == nil {
					scrapes[i].err = fmt.Errorf("status %d", res.status)
				}
				return
			}
			scrapes[i] = scrape{body: res.body}
		}(i, rep)
	}
	wg.Wait()

	ru := newRollup()
	for _, sc := range scrapes {
		if sc.err != nil {
			rt.m.rollupErrors.Inc()
			continue
		}
		_ = ru.add(bytes.NewReader(sc.body))
	}
	_ = ru.write(w)
}
