package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

func TestQuantizeKey(t *testing.T) {
	px := geo.Pixel{X: 100, Y: 201}
	k := quantizeKey(px, nil, nil)
	if k != (predKey{Col: 50, Row: 100, SpeedB: -1, BearingB: -1}) {
		t.Fatalf("bare key: %+v", k)
	}
	// Neighbouring pixels in the same 2 m map cell share a key.
	if quantizeKey(geo.Pixel{X: 101, Y: 200}, nil, nil) != k {
		t.Fatal("same-cell pixels must share a key")
	}
	sp, b := 3.7, -10.0
	k = quantizeKey(px, &sp, &b)
	if k.SpeedB != 3 {
		t.Fatalf("speed bucket: %d", k.SpeedB)
	}
	if k.BearingB != 15 { // -10° wraps to 350°, the last 22.5° sector
		t.Fatalf("wrapped bearing sector: %d", k.BearingB)
	}
	north := 0.0
	if k := quantizeKey(px, nil, &north); k.BearingB != 0 || k.SpeedB != -1 {
		t.Fatalf("north, no speed: %+v", k)
	}
	// "speed 0" and "no speed" are served by different tiers and must not
	// share a cache entry.
	zero := 0.0
	if quantizeKey(px, &zero, nil) == quantizeKey(px, nil, nil) {
		t.Fatal("speed 0 must differ from absent speed")
	}
}

// TestQuantizeKeyEdges pins the boundary behaviour of the quantizer:
// the compass seam, the speed-bucket edges, and the guarantee that the
// -1 absent-sensor sentinels cannot collide with any valid reading.
func TestQuantizeKeyEdges(t *testing.T) {
	px := geo.Pixel{X: 10, Y: 10}
	sector := func(deg float64) int16 {
		return quantizeKey(px, nil, &deg).BearingB
	}
	// -360°, 0° and 360° are the same heading and must share sector 0
	// (math.Mod(-360, 360) is -0, which must not wrap to the top sector).
	if s0, sNeg, sPos := sector(0), sector(-360), sector(360); s0 != 0 || sNeg != 0 || sPos != 0 {
		t.Fatalf("north aliases: 0°→%d -360°→%d 360°→%d", s0, sNeg, sPos)
	}
	// Sector boundaries: 22.5° opens sector 1; just below stays in 0.
	if s := sector(22.5); s != 1 {
		t.Fatalf("22.5° sector: %d", s)
	}
	if s := sector(22.4999); s != 0 {
		t.Fatalf("22.4999° sector: %d", s)
	}
	if s := sector(359.9999); s != 15 {
		t.Fatalf("359.9999° sector: %d", s)
	}
	// Speed buckets truncate: [0,1) → 0, [1,2) → 1; the range cap (500)
	// stays within int16.
	speed := func(v float64) int16 {
		return quantizeKey(px, &v, nil).SpeedB
	}
	if b := speed(0.999); b != 0 {
		t.Fatalf("0.999 km/h bucket: %d", b)
	}
	if b := speed(1.0); b != 1 {
		t.Fatalf("1.0 km/h bucket: %d", b)
	}
	if b := speed(500); b != 500 {
		t.Fatalf("500 km/h bucket: %d", b)
	}
	// No valid reading can produce the -1 sentinels: speeds are
	// non-negative (bucket ≥ 0) and bearing sectors land in [0, 15].
	for _, v := range []float64{0, 0.5, 42, 500} {
		if b := speed(v); b < 0 {
			t.Fatalf("valid speed %v hit the absent sentinel: %d", v, b)
		}
	}
	for deg := -360.0; deg <= 360; deg += 7.5 {
		if s := sector(deg); s < 0 || s > 15 {
			t.Fatalf("bearing %v° out of sector range: %d", deg, s)
		}
	}
}

func TestPredCacheLRUAndOutcomes(t *testing.T) {
	var evictions, abandoned atomic.Uint64
	c := newPredCache(2, func() { evictions.Add(1) }, func() { abandoned.Add(1) })
	mk := func(i int) predKey { return predKey{Col: int32(i)} }
	val := func(i int) computerFunc {
		return func() engine.Prediction { return engine.Prediction{Mbps: float64(i)} }
	}
	if r, _, o := c.run(mk(1), val(1), false); r.Mbps != 1 || o != outcomeMiss {
		t.Fatalf("miss compute: %+v %v", r, o)
	}
	c.run(mk(2), val(2), false)
	// Hit on 1 refreshes its recency, so inserting 3 must evict 2.
	if _, _, o := c.run(mk(1), computerFunc(func() engine.Prediction {
		t.Error("hit must not compute")
		return engine.Prediction{}
	}), false); o != outcomeHit {
		t.Fatalf("outcome: %v", o)
	}
	c.run(mk(3), val(3), false)
	if got := evictions.Load(); got != 1 {
		t.Fatalf("evictions after first overflow: %d", got)
	}
	recomputed := false
	c.run(mk(2), computerFunc(func() engine.Prediction { recomputed = true; return engine.Prediction{} }), false)
	if !recomputed {
		t.Fatal("LRU evicted the wrong entry (2 should have been dropped)")
	}
	// Re-inserting 2 pushed the store over capacity again, evicting the
	// then-oldest entry (1); 3 must have survived as the other resident.
	c.run(mk(3), computerFunc(func() engine.Prediction {
		t.Error("3 must have survived the eviction")
		return engine.Prediction{}
	}), false)
	if e, a := evictions.Load(), abandoned.Load(); e != 2 || a != 0 {
		t.Fatalf("evictions %d abandoned %d", e, a)
	}
	if c.size() != 2 {
		t.Fatalf("size: %d", c.size())
	}
	// Disabled cache is represented as nil, not a zero-capacity store.
	if newPredCache(0, nil, nil) != nil {
		t.Fatal("capacity 0 must disable the cache")
	}
}

// TestPredCacheSingleflight holds the leader mid-compute and proves that
// followers on the same key never run their compute function: once the
// leader's pending entry is in the map (guaranteed before `started`
// closes), every later arrival blocks on it.
func TestPredCacheSingleflight(t *testing.T) {
	c := newPredCache(8, nil, nil)
	key := predKey{Col: 1, Row: 2, SpeedB: 3, BearingB: 4}
	started := make(chan struct{})
	release := make(chan struct{})
	var leaderBody []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var o cacheOutcome
		_, leaderBody, o = c.run(key, computerFunc(func() engine.Prediction {
			close(started)
			<-release
			return engine.Prediction{Mbps: 42, Source: "L"}
		}), false)
		if o != outcomeMiss {
			t.Errorf("leader outcome: %v", o)
		}
	}()
	<-started

	const followers = 8
	bodies := make([][]byte, followers)
	outcomes := make([]cacheOutcome, followers)
	var fwg sync.WaitGroup
	for i := 0; i < followers; i++ {
		fwg.Add(1)
		go func(i int) {
			defer fwg.Done()
			_, bodies[i], outcomes[i] = c.run(key, computerFunc(func() engine.Prediction {
				t.Error("follower compute ran — singleflight broken")
				return engine.Prediction{}
			}), false)
		}(i)
	}
	close(release)
	wg.Wait()
	fwg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, leaderBody) {
			t.Fatalf("follower %d body differs: %s vs %s", i, b, leaderBody)
		}
		if outcomes[i] != outcomeHit {
			t.Fatalf("follower %d outcome: %v", i, outcomes[i])
		}
	}
}

func TestPredCacheLeaderPanicRecovers(t *testing.T) {
	var abandoned atomic.Uint64
	c := newPredCache(8, nil, func() { abandoned.Add(1) })
	key := predKey{Col: 9}
	func() {
		defer func() { _ = recover() }()
		c.run(key, computerFunc(func() engine.Prediction { panic("model exploded") }), false)
	}()
	if c.size() != 0 {
		t.Fatal("abandoned entry must be removed")
	}
	if abandoned.Load() != 1 {
		t.Fatalf("abandoned hook: %d", abandoned.Load())
	}
	// The key is computable again — no wedged pending entry.
	r, body, o := c.run(key, computerFunc(func() engine.Prediction { return engine.Prediction{Mbps: 7} }), false)
	if r.Mbps != 7 || len(body) == 0 || o != outcomeMiss {
		t.Fatalf("recompute after panic: %+v %q %v", r, body, o)
	}
}

// TestPredCacheNonFiniteLeader pins the non-panicking marshal contract:
// a leader whose compute produces NaN/Inf must not poison the cache —
// the entry is dropped, the outcome is invalid (nil body), followers
// recompute uncached, and the key stays computable afterwards.
func TestPredCacheNonFiniteLeader(t *testing.T) {
	var abandoned atomic.Uint64
	c := newPredCache(8, nil, func() { abandoned.Add(1) })
	key := predKey{Col: 11}
	_, body, o := c.run(key, computerFunc(func() engine.Prediction {
		return engine.Prediction{Mbps: math.NaN()}
	}), false)
	if body != nil || o != outcomeInvalid {
		t.Fatalf("NaN leader: body %q outcome %v", body, o)
	}
	if c.size() != 0 {
		t.Fatal("invalid entry must not be cached")
	}
	if abandoned.Load() != 1 {
		t.Fatalf("abandoned hook: %d", abandoned.Load())
	}
	r, body, o := c.run(key, computerFunc(func() engine.Prediction { return engine.Prediction{Mbps: 5} }), false)
	if r.Mbps != 5 || body == nil || o != outcomeMiss {
		t.Fatalf("recompute after invalid: %+v %q %v", r, body, o)
	}
}

// TestMarshalResponseNonFinite is the regression for the panic that
// lived here: the /predict body renderer must return nil — not panic —
// for every non-finite Mbps, in both flavours.
func TestMarshalResponseNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, ival := range []bool{false, true} {
			if b := predictBody(engine.Prediction{Mbps: v}, ival); b != nil {
				t.Fatalf("Mbps=%v intervals=%v must have no wire form, got %q", v, ival, b)
			}
		}
	}
	if b := predictBody(engine.Prediction{Mbps: 12}, false); b == nil || b[len(b)-1] != '\n' {
		t.Fatalf("finite response must marshal newline-terminated: %q", b)
	}
}

func TestPredictCacheHitsAndHealth(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, trainedChain(t))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	url := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4&bearing=10", srv.URL, testLat, testLon)
	_, body1 := get(t, url)
	_, body2 := get(t, url)
	if body1 != body2 {
		t.Fatalf("cached body differs:\n%s\n%s", body1, body2)
	}

	var h healthJSON
	_, hb := get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheHits != 1 || h.CacheMisses != 1 || h.CacheEntries != 1 {
		t.Fatalf("cache counters: %+v", h)
	}
	// The hit answered without a model walk: tier counters see one query,
	// and the audit identity
	// responses = Σ tiers_served + cache_hits + cache_uncached holds.
	var served uint64
	for _, n := range h.TiersServed {
		served += n
	}
	if served != 1 || served+h.CacheHits+h.CacheUncached != 2 {
		t.Fatalf("tiers_served %v with %d hits %d uncached", h.TiersServed, h.CacheHits, h.CacheUncached)
	}

	// A model swap empties the cache but keeps the lifetime counters.
	s.SetChain(s.Chain())
	_, hb = get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheEntries != 0 || h.CacheHits != 1 {
		t.Fatalf("after swap: %+v", h)
	}
	// The same query now recomputes on the fresh cache.
	if _, body3 := get(t, url); body3 != body1 {
		t.Fatalf("same model after swap must answer identically:\n%s\n%s", body3, body1)
	}
	_, hb = get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheMisses != 2 || h.CacheEntries != 1 {
		t.Fatalf("post-swap recompute: %+v", h)
	}
}

func TestPredictCacheDisabled(t *testing.T) {
	tm, _ := setup(t)
	s, err := NewWithChain(tm, trainedChain(t), WithPredictCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()
	url := fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4&bearing=10", srv.URL, testLat, testLon)
	_, body1 := get(t, url)
	_, body2 := get(t, url)
	if body1 != body2 {
		t.Fatal("uncached answers must still be deterministic")
	}
	var h healthJSON
	_, hb := get(t, srv.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.CacheHits != 0 || h.CacheMisses != 0 || h.CacheEntries != 0 {
		t.Fatalf("disabled cache counted: %+v", h)
	}
}

// TestPredictBodiesCacheOnOffMapOnly guards the single /predict tail:
// a cache miss, a cache hit and a cache-off recompute of one query
// answer with the same bytes in both flavours, and a map-only server
// (nil chain) serves the degenerate band without observing the
// model-walk latency histogram.
func TestPredictBodiesCacheOnOffMapOnly(t *testing.T) {
	tm, _ := setup(t)
	_, chain := ivalSetup(t) // calibrated: the interval flavour carries a real band
	serve := func(c *lumos5g.FallbackChain, opts ...Option) *httptest.Server {
		s, err := NewWithChain(tm, c, opts...)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(s)
		t.Cleanup(srv.Close)
		return srv
	}
	on, off, mapOnly := serve(chain), serve(chain, WithPredictCacheSize(0)), serve(nil)

	queries := []string{
		fmt.Sprintf("lat=%f&lon=%f&speed=4.5&bearing=10", testLat, testLon),
		fmt.Sprintf("lat=%f&lon=%f", testLat, testLon),
		"lat=0&lon=0",
	}
	sources := map[string]bool{}
	for qi, q := range queries {
		// Alternate which flavour leads, so both flavours are served as
		// a cache miss and as a hit.
		flavours := []string{"", "&intervals=1"}
		if qi%2 == 1 {
			flavours[0], flavours[1] = flavours[1], flavours[0]
		}
		for _, fl := range flavours {
			path := "/predict?" + q + fl
			var bodies []string
			for _, base := range []string{on.URL, on.URL, off.URL, off.URL} {
				resp, body := get(t, base+path)
				if resp.StatusCode != 200 {
					t.Fatalf("%s: %d %s", path, resp.StatusCode, body)
				}
				bodies = append(bodies, body)
			}
			for i := 1; i < len(bodies); i++ {
				if bodies[i] != bodies[0] {
					t.Fatalf("%s: body %d differs from the cache-on miss:\n%s\n%s", path, i, bodies[i], bodies[0])
				}
			}

			resp, body := get(t, mapOnly.URL+path)
			if resp.StatusCode != 200 {
				t.Fatalf("map-only %s: %d %s", path, resp.StatusCode, body)
			}
			var iv predictIntervalResponse
			if err := json.Unmarshal([]byte(body), &iv); err != nil {
				t.Fatal(err)
			}
			sources[iv.Source] = true
			if fl != "" && (iv.P10 != iv.Mbps || iv.P50 != iv.Mbps || iv.P90 != iv.Mbps) {
				t.Fatalf("map-only %s: band not degenerate at mbps: %+v", path, iv)
			}
		}
	}
	if !sources["map-cell"] || !sources["map-mean"] {
		t.Fatalf("map-only server answered from %v, want map-cell and map-mean", sources)
	}

	const walk = "lumos_predict_tier_duration_seconds"
	if _, m := get(t, on.URL+"/metrics"); !strings.Contains(m, walk) {
		t.Fatalf("cache-on server exposes no %s series", walk)
	}
	_, m := get(t, mapOnly.URL+"/metrics")
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, walk) &&
			(strings.Contains(line, `tier="map-cell"`) || strings.Contains(line, `tier="map-mean"`)) {
			t.Fatalf("map-only answer observed a model walk: %s", line)
		}
	}
}

// TestCacheCoherentUnderConcurrentReload is the hot-swap coherence test:
// goroutines hammer one cached /predict query while the model is
// concurrently reloaded between two chains with different tier shapes.
// Because the cache is swapped in the same critical section as the
// chain, a query issued after a reload returns must always be answered
// by the new chain's tier — never a stale cached tier from the old one.
// Run under -race (`make tier1` does).
func TestCacheCoherentUnderConcurrentReload(t *testing.T) {
	tm, predLM := setup(t)
	area, err := lumos5g.AreaByName("Airport")
	if err != nil {
		t.Fatal(err)
	}
	cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 3, BackgroundUEProb: 0.1}
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
	predL, err := lumos5g.Train(clean, lumos5g.GroupL, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Chain A serves a full query from its L+M tier; chain B has no L+M
	// tier at all, so the same query is served by L. The serving tier's
	// Source is therefore a fingerprint of which model generation answered.
	chainA, err := lumos5g.NewFallbackChain(250, predLM, predL)
	if err != nil {
		t.Fatal(err)
	}
	chainB, err := lumos5g.NewFallbackChain(250, predL)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.l5g")
	pathB := filepath.Join(dir, "b.l5g")
	if err := chainA.SaveFile(pathA); err != nil {
		t.Fatal(err)
	}
	if err := chainB.SaveFile(pathB); err != nil {
		t.Fatal(err)
	}

	s, err := NewWithChain(tm, chainA)
	if err != nil {
		t.Fatal(err)
	}
	query := fmt.Sprintf("/predict?lat=%f&lon=%f&speed=4&bearing=10", testLat, testLon)
	ask := func() predictResponse {
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest("GET", query, nil))
		if rr.Code != 200 {
			t.Errorf("predict: %d %s", rr.Code, rr.Body.String())
		}
		var pr predictResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
			t.Errorf("bad body: %v %s", err, rr.Body.String())
		}
		return pr
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Hammer goroutines race the swaps, so either generation
				// may answer — but never anything else.
				if pr := ask(); pr.Source != "L+M" && pr.Source != "L" {
					t.Errorf("impossible source %q", pr.Source)
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		path, want := pathA, "L+M"
		if i%2 == 1 {
			path, want = pathB, "L"
		}
		if err := s.ReloadModelFile(path); err != nil {
			t.Fatalf("reload %s: %v", path, err)
		}
		// The swap has returned: the very same (hot, cached) query must
		// now be answered by the new chain — a stale cached tier here
		// means invalidation raced the chain swap.
		if pr := ask(); pr.Source != want {
			t.Fatalf("swap %d: got tier source %q, want %q (stale cache)", i, pr.Source, want)
		}
	}
	close(stop)
	wg.Wait()
}
