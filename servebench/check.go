package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"lumos5g/internal/engine"
)

// checker validates every response and keeps the first few failures.
// A response that does not parse, an interval out of order, a batch
// with a missing or failed row, ingest accounting that does not add up,
// or a sampled prediction that differs from the owning replica's engine
// makes the run incorrect.
type checker struct {
	sys  *system
	seed uint64
	// sampleEvery picks the answers re-derived from the replica's
	// engine: those whose index hashes to 0 mod sampleEvery (one row of
	// a sampled batch).
	sampleEvery uint64

	mu       sync.Mutex
	errs     []string
	nErrs    int
	firstErr string
	offered  atomic.Int64 // samples sent to /ingest and answered 200

	wl    *workload
	byKey map[engine.Key]*keyHist // guarded by mu

	verified atomic.Int64
	skipped  atomic.Int64 // sampled answers not compared: raced a refit, or their key outgrew keyHist
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nErrs++
	if len(c.errs) < 10 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nErrs, append([]string(nil), c.errs...)
}

func (c *checker) firstError() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstErr
}

type pointJSON struct {
	Mbps   *float64 `json:"mbps"`
	P10    *float64 `json:"p10"`
	P50    *float64 `json:"p50"`
	P90    *float64 `json:"p90"`
	Tier   int      `json:"tier"`
	Source string   `json:"source"`
}

type batchJSON struct {
	Partial *bool `json:"partial"`
	Rows    []struct {
		Mbps   *float64 `json:"mbps"`
		P10    *float64 `json:"p10"`
		P50    *float64 `json:"p50"`
		P90    *float64 `json:"p90"`
		Tier   int      `json:"tier"`
		Source string   `json:"source"`
		Shard  string   `json:"shard"`
		Error  string   `json:"error"`
	} `json:"rows"`
}

type ingestJSON struct {
	Partial  *bool `json:"partial"`
	Accepted int   `json:"accepted"`
	Rejected int   `json:"rejected"`
	Dropped  int   `json:"dropped"`
	Failed   int   `json:"failed"`
}

func finite(v *float64) bool { return v != nil && !math.IsNaN(*v) && !math.IsInf(*v, 0) && *v >= 0 }

// ordered checks p10 <= p50 <= p90 with p50 == mbps.
func ordered(mbps, p10, p50, p90 *float64) bool {
	return finite(p10) && finite(p50) && finite(p90) && *p10 <= *p50 && *p50 <= *p90 && *p50 == *mbps
}

// check validates one response and returns the rows it completed:
// prediction rows, or accepted samples for /ingest.
func (c *checker) check(idx int, req *request, resp *http.Response, body []byte, epoch uint64) (int, bool) {
	if resp.StatusCode != http.StatusOK {
		// An error answer is a failure (counted in failed), not a wrong
		// output; keep one for the log.
		c.mu.Lock()
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("%s #%d: status %d: %.200s", req.kind, idx, resp.StatusCode, body)
		}
		c.mu.Unlock()
		return 0, false
	}
	switch req.kind {
	case kindRead:
		var p pointJSON
		if err := json.Unmarshal(body, &p); err != nil || !finite(p.Mbps) {
			c.fail("read #%d: unparsable answer %.200s", idx, body)
			return 0, false
		}
		if req.ival && !ordered(p.Mbps, p.P10, p.P50, p.P90) {
			c.fail("read #%d: interval out of order: %s", idx, body)
			return 0, false
		}
		if c.sampled(idx) != 0 && !c.verify(idx, req, &p, resp.Header.Get("X-Fleet-Replica"), epoch) {
			return 0, false
		}
		return 1, true
	case kindBatch:
		var b batchJSON
		if err := json.Unmarshal(body, &b); err != nil || b.Partial == nil {
			c.fail("batch #%d: unparsable answer %.200s", idx, body)
			return 0, false
		}
		if *b.Partial || len(b.Rows) != req.rows {
			c.fail("batch #%d: partial=%v with %d of %d rows", idx, *b.Partial, len(b.Rows), req.rows)
			return 0, false
		}
		for i, r := range b.Rows {
			if r.Error != "" || !finite(r.Mbps) || !ordered(r.Mbps, r.P10, r.P50, r.P90) {
				c.fail("batch #%d row %d: bad row (error %q)", idx, i, r.Error)
				return 0, false
			}
		}
		if h := c.sampled(idx); h != 0 {
			k := int((h / c.sampleEvery) % uint64(len(b.Rows)))
			r := &b.Rows[k]
			got := pointJSON{Mbps: r.Mbps, P10: r.P10, P50: r.P50, P90: r.P90, Tier: r.Tier, Source: r.Source}
			if !c.verifyRow(idx, k, &got, r.Shard, epoch) {
				return 0, false
			}
		}
		return len(b.Rows), true
	default:
		var g ingestJSON
		if err := json.Unmarshal(body, &g); err != nil || g.Partial == nil {
			c.fail("ingest #%d: unparsable answer %.200s", idx, body)
			return 0, false
		}
		if *g.Partial || g.Failed != 0 || g.Accepted+g.Rejected+g.Dropped != req.rows {
			c.fail("ingest #%d: accounting %+v does not cover %d samples", idx, g, req.rows)
			return 0, false
		}
		c.offered.Add(int64(req.rows))
		return g.Accepted, true
	}
}

// sampled returns a non-zero hash of request idx when its answer is to
// be re-derived from the replica's engine, and 0 otherwise.
func (c *checker) sampled(idx int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", c.seed, idx)
	if v := h.Sum64(); v%c.sampleEvery == 0 && v != 0 {
		return v
	}
	return 0
}

// same reports whether an answer equals the engine's prediction.
func same(p *pointJSON, want engine.Prediction, ival bool) bool {
	eq := *p.Mbps == want.Mbps && p.Tier == want.Tier && p.Source == want.Source
	if ival {
		eq = eq && *p.P10 == want.P10 && *p.P90 == want.P90
	}
	return eq
}

// verifyRow re-derives row k of a sampled batch. Batches bypass the
// replica cache, so the row must equal the engine's answer to that very
// query on one of the replicas of the shard that served it.
func (c *checker) verifyRow(idx, k int, p *pointJSON, shard string, epoch uint64) bool {
	q := c.wl.batchPoint(c.wl.local(idx), k)
	matched, found := false, false
	for _, rp := range c.sys.replicas {
		if rp.shard != shard {
			continue
		}
		found = true
		if same(p, rp.srv.Engine().PredictInterval(q.px, &q.speed, &q.bearing), true) {
			matched = true
			break
		}
	}
	switch {
	case !found:
		c.fail("batch #%d row %d: served by unknown shard %q", idx, k, shard)
		return false
	case epoch%2 == 1 || c.sys.swapEpoch.Load() != epoch:
		c.skipped.Add(1)
		return true
	case !matched:
		c.fail("batch #%d row %d: shard %s answered %v (tier %d %s), which none of its replicas' engines gives",
			idx, k, shard, *p.Mbps, p.Tier, p.Source)
		return false
	}
	c.verified.Add(1)
	return true
}

// keyHist remembers the first reads sent under one cache key, by
// sequence index: a cached answer is the engine's answer to whichever
// of them reached the replica first.
type keyHist struct {
	n   int
	idx [maxKeyQueries]int32
}

// maxKeyQueries bounds the reads remembered per cache key; a sampled
// answer whose key saw more is skipped unless one of them matches.
const maxKeyQueries = 4

// begin records a read about to be sent and returns the swap epoch to
// hand back to check with its response.
func (c *checker) begin(idx int, req *request) uint64 {
	epoch := c.sys.swapEpoch.Load()
	if req.kind != kindRead {
		return epoch
	}
	k := req.pt.key()
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.byKey[k]
	if h == nil {
		h = &keyHist{}
		c.byKey[k] = h
	}
	if h.n < maxKeyQueries {
		h.idx[h.n] = int32(idx)
	}
	h.n++
	return epoch
}

// verify re-derives a sampled /predict answer from the serving
// replica's engine: it must equal the engine's answer to one of the
// queries sent so far with the same cache key (the replica cache
// serves the first one's answer to the rest). An answer that raced a
// scheduled refit is skipped rather than compared with another model
// generation.
func (c *checker) verify(idx int, req *request, p *pointJSON, replicaID string, epoch uint64) bool {
	rp := c.sys.byID[replicaID]
	if rp == nil {
		c.fail("read #%d: answered by unknown replica %q", idx, replicaID)
		return false
	}
	c.mu.Lock()
	h := *c.byKey[req.pt.key()]
	c.mu.Unlock()
	eng := rp.srv.Engine()
	matched := false
	for _, i := range h.idx[:min(h.n, maxKeyQueries)] {
		q := c.wl.request(int(i)).pt
		if same(p, eng.PredictInterval(q.px, &q.speed, &q.bearing), req.ival) {
			matched = true
			break
		}
	}
	switch {
	case epoch%2 == 1 || c.sys.swapEpoch.Load() != epoch || (!matched && h.n > maxKeyQueries):
		c.skipped.Add(1)
		return true
	case !matched:
		c.fail("read #%d: replica %s answered %v (tier %d %s), which its engine gives for none of the %d queries with this cache key",
			idx, replicaID, *p.Mbps, p.Tier, p.Source, h.n)
		return false
	}
	c.verified.Add(1)
	return true
}
