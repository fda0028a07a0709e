package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lumos5g/internal/mapserver"
	"lumos5g/internal/wire"
)

// Chaos suite: every test here starts a real fleet — replicated
// mapserver processes-alike on loopback TCP behind the router — and
// breaks it on purpose while load is running. The assertions are the
// ISSUE's acceptance criteria: killed replicas cost zero failed single
// predictions, fan-out answers are explicitly partial rather than
// silently holed or hung, drains cause no 5xx, and the books balance
// exactly between router and replica counters.

// testFleetConfig tightens every timing knob so failure detection and
// restarts happen at test speed.
func testFleetConfig() FleetConfig {
	return FleetConfig{
		Shards:   3,
		Replicas: 2,
		Router: RouterConfig{
			HedgeDelay:     25 * time.Millisecond,
			AttemptTimeout: 2 * time.Second,
			RetryBase:      2 * time.Millisecond,
			RetryMax:       50 * time.Millisecond,
			ProbeInterval:  50 * time.Millisecond,
		},
		RestartBase: 50 * time.Millisecond,
		RestartMax:  500 * time.Millisecond,
	}
}

func startTestFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	tm, chain, _ := fixture(t)
	f, err := StartFleet(tm, chain, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Shutdown(ctx)
	})
	waitFleetHealthy(t, f)
	return f
}

// waitFleetHealthy blocks until the prober has marked every replica
// healthy (the fixture chain serves on every replica, so nothing should
// be degraded).
func waitFleetHealthy(t *testing.T, f *Fleet) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, sh := range f.Topology().Shards {
			for _, rep := range sh.Replicas {
				if rep.State() != StateHealthy {
					all = false
				}
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("fleet never became healthy")
}

// predictURL formats one query against the router.
func predictURL(p [2]float64, withSensors bool, i int) string {
	u := fmt.Sprintf("/predict?lat=%.8f&lon=%.8f", p[0], p[1])
	if withSensors {
		u += fmt.Sprintf("&speed=%d&bearing=%d", i%20, (i*37)%360)
	}
	return u
}

// loadResult tallies one load run; wait joins the workers after the
// stop channel closes.
type loadResult struct {
	total    atomic.Int64
	failures atomic.Int64
	firstErr atomic.Value // string
	wait     func()
}

func (lr *loadResult) fail(detail string) {
	lr.failures.Add(1)
	lr.firstErr.CompareAndSwap(nil, detail)
}

// runLoad hammers the router's /predict with workers until stop closes.
func runLoad(rt *Router, points [][2]float64, workers int, stop <-chan struct{}) *loadResult {
	lr := &loadResult{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := points[(i*workers+w)%len(points)]
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodGet, predictURL(p, w%2 == 0, i), nil)
				rt.ServeHTTP(rec, req)
				lr.total.Add(1)
				if rec.Code != http.StatusOK {
					lr.fail(fmt.Sprintf("code %d body %s", rec.Code, rec.Body.String()))
				}
			}
		}(w)
	}
	lr.wait = wg.Wait
	return lr
}

// TestChaosKillOneReplicaPerShard is the headline chaos scenario: a
// 3-shard × 2-replica fleet under concurrent load loses one replica in
// EVERY shard mid-run. The surviving replicas must absorb everything —
// zero failed single predictions — and the supervisor must bring the
// killed replicas back.
func TestChaosKillOneReplicaPerShard(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	_, _, points := fixture(t)

	stop := make(chan struct{})
	lr := runLoad(f.Router(), points, 8, stop)

	time.Sleep(300 * time.Millisecond)
	for i, sh := range f.Topology().Shards {
		victim := sh.Replicas[i%len(sh.Replicas)].ID
		if !f.KillReplica(victim) {
			t.Errorf("no such replica %s", victim)
		}
	}
	// Keep the load running through the failure and the restarts.
	time.Sleep(1200 * time.Millisecond)
	close(stop)
	lr.wait()

	if n := lr.failures.Load(); n != 0 {
		t.Fatalf("%d/%d predictions failed during replica kills; first: %v",
			n, lr.total.Load(), lr.firstErr.Load())
	}
	if lr.total.Load() < 100 {
		t.Fatalf("load generator barely ran: %d requests", lr.total.Load())
	}
	// The supervisor must have restarted the victims: every replica
	// healthy again.
	waitFleetHealthy(t, f)
}

// TestBatchPartialAndCounterInvariant kills a whole shard (both
// replicas, no restart) and sends a batch spanning every shard. The
// response must be explicitly partial — dead shard's rows marked with
// provenance and error, everything else served — and the books must
// balance exactly: served rows equal the sum of the replicas'
// batch-route serving counters, because each served row was computed by
// exactly one replica and a dead shard's rows reached none.
func TestBatchPartialAndCounterInvariant(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	_, _, points := fixture(t)
	topo := f.Topology()

	// Pick the victim: the shard owning the most query points, so the
	// partial response demonstrably has both served and failed rows.
	ownerOf := make([]string, len(points))
	ownCount := map[string]int{}
	for i, p := range points {
		sh := topo.Owner(RouteKey(p[0], p[1], nil, nil))
		ownerOf[i] = sh.ID
		ownCount[sh.ID]++
	}
	victim := topo.Shards[0]
	for _, sh := range topo.Shards {
		if ownCount[sh.ID] > ownCount[victim.ID] {
			victim = sh
		}
	}
	if ownCount[victim.ID] == 0 || ownCount[victim.ID] == len(points) {
		t.Fatalf("degenerate ownership: %v", ownCount)
	}
	for _, rep := range victim.Replicas {
		f.DisableReplica(rep.ID)
	}

	// Build and send the batch through the router.
	queries := make([]wire.Query, len(points))
	for i, p := range points {
		queries[i] = wire.Query{Lat: p[0], Lon: p[1]}
	}
	body, _ := json.Marshal(queries)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(string(body)))
	f.Router().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch against half-dead fleet: %d %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("response not marked partial with a dead shard")
	}
	if len(resp.Rows) != len(points) {
		t.Fatalf("rows: %d, queries: %d — a silent hole", len(resp.Rows), len(points))
	}
	served := 0
	for i, row := range resp.Rows {
		if row.Shard != ownerOf[i] {
			t.Fatalf("row %d served by %s, owner is %s", i, row.Shard, ownerOf[i])
		}
		if ownerOf[i] == victim.ID {
			if row.Mbps != nil || row.Error == "" || !row.Degraded {
				t.Fatalf("dead-shard row %d not an explicit failure: %+v", i, row)
			}
			if len(row.Missing) == 0 || row.Missing[0] != "shard:"+victim.ID {
				t.Fatalf("dead-shard row %d missing provenance: %+v", i, row)
			}
		} else {
			if row.Mbps == nil || row.Error != "" {
				t.Fatalf("live-shard row %d not served: %+v", i, row)
			}
			served++
		}
	}

	// The exact counting invariant, across processes: fleet-served rows
	// == Σ over reachable replicas of their batch-route tier counters.
	var replicaServed float64
	for _, sh := range f.Topology().Shards {
		if sh == victim {
			continue
		}
		for _, rep := range sh.Replicas {
			replicaServed += scrapeSum(t, rep.URL, `lumos_predict_tier_served_total{route="/predict/batch"`)
		}
	}
	if int(replicaServed) != served {
		t.Fatalf("books off: %d rows served, replicas counted %v", served, replicaServed)
	}
	// And the router's own ledger agrees.
	if got := f.Router().m.batchRows.Total(map[string]string{"outcome": "served"}); got != uint64(served) {
		t.Fatalf("fleet_batch_rows_total{served} = %d, want %d", got, served)
	}
	if got := f.Router().m.batchRows.Total(map[string]string{"outcome": "failed"}); got != uint64(len(points)-served) {
		t.Fatalf("fleet_batch_rows_total{failed} = %d, want %d", got, len(points)-served)
	}

	// Map-wide query over the same half-dead fleet: explicitly partial,
	// dead shard listed, live shards' cells all present.
	rec = httptest.NewRecorder()
	f.Router().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/cells.json", nil))
	var cells CellsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	if !cells.Partial || len(cells.Missing) != 1 || cells.Missing[0] != victim.ID {
		t.Fatalf("cells.json partiality wrong: partial=%v missing=%v", cells.Partial, cells.Missing)
	}
	tm, _, _ := fixture(t)
	wantCells := len(tm.Cells) - len(PartitionMap(tm, shardIDs(topo))[victim.ID].Cells)
	if len(cells.Cells) != wantCells {
		t.Fatalf("merged cells: %d, want %d", len(cells.Cells), wantCells)
	}
}

func shardIDs(t *Topology) []string {
	ids := make([]string, len(t.Shards))
	for i, sh := range t.Shards {
		ids[i] = sh.ID
	}
	return ids
}

// scrapeSum fetches one replica's /metrics and sums every series whose
// name+labels start with prefix.
func scrapeSum(t *testing.T, baseURL, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", baseURL, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

// TestDrainShardNo5xx removes a shard gracefully while load runs: the
// router must keep answering 200 throughout — the drained shard's keys
// move to the surviving shards (their answers degrade to map-mean for
// cells they do not hold, which is degradation, not failure).
func TestDrainShardNo5xx(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	_, _, points := fixture(t)

	stop := make(chan struct{})
	lr := runLoad(f.Router(), points, 6, stop)

	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if !f.DrainShard(ctx, "s1") {
		t.Error("shard s1 not found")
	}
	cancel()
	time.Sleep(500 * time.Millisecond)
	close(stop)
	lr.wait()

	if n := lr.failures.Load(); n != 0 {
		t.Fatalf("%d/%d requests failed across the drain; first: %v",
			n, lr.total.Load(), lr.firstErr.Load())
	}
	if got := len(f.Topology().Shards); got != 2 {
		t.Fatalf("topology still has %d shards after drain", got)
	}
	// The drained shard's keys must now route to live shards and serve.
	for i, p := range points {
		rec := httptest.NewRecorder()
		f.Router().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, predictURL(p, false, i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("post-drain query %d: %d %s", i, rec.Code, rec.Body.String())
		}
	}
}

// TestStalledReplicaHedged puts a stalling proxy in front of one of two
// replicas: a query unlucky enough to try the stalled one first must
// still answer fast via the hedge, not hang until the attempt timeout.
func TestStalledReplicaHedged(t *testing.T) {
	tm, chain, points := fixture(t)
	mkReplica := func() *httptest.Server {
		ms, err := mapserver.NewWithChain(tm, chain)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(ms)
		t.Cleanup(srv.Close)
		return srv
	}
	stalled := mkReplica()
	good := mkReplica()
	proxy, err := NewChaosProxy(stalled.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)
	proxy.SetMode(ModeStall)

	topo := &Topology{Shards: []*Shard{{
		ID: "s0",
		Replicas: []*Replica{
			{ID: "s0r0", URL: proxy.URL()},
			{ID: "s0r1", URL: good.URL},
		},
	}}}
	rt := NewRouter(topo, RouterConfig{
		HedgeDelay:     20 * time.Millisecond,
		AttemptTimeout: 1500 * time.Millisecond,
		// A long probe interval keeps the prober from marking the stalled
		// replica down mid-test: the point is to exercise the hedge, not
		// the health routing.
		ProbeInterval: time.Minute,
	})
	t.Cleanup(rt.Close)

	start := time.Now()
	const n = 8
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, predictURL(points[i%len(points)], false, i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %d against half-stalled shard: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if elapsed := time.Since(start); elapsed > n*750*time.Millisecond {
		t.Fatalf("queries took %v — hedging is not cutting stall latency", elapsed)
	}
	// Candidate rotation makes roughly half the queries try the stalled
	// replica first; each of those must have hedged.
	if rt.m.hedges.Value() == 0 {
		t.Fatal("no hedges fired against a stalled replica")
	}
}

// TestFleetMetricsRollup checks the fleet /metrics endpoint merges both
// ledgers: the router's own fleet_* instruments and the point-wise sum
// of every replica's lumos_* exposition.
func TestFleetMetricsRollup(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	_, _, points := fixture(t)

	// Some traffic so the counters are non-zero.
	for i, p := range points {
		rec := httptest.NewRecorder()
		f.Router().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, predictURL(p, false, i), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("warm-up query: %d", rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	f.Router().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	exposition := rec.Body.String()

	for _, want := range []string{
		"fleet_http_requests_total{route=\"/predict\",code=\"200\"}",
		"fleet_attempts_total{outcome=\"success\"}",
		"lumos_http_requests_total",       // rolled up from replicas
		"lumos_predict_tier_served_total", // serving counters survive the merge
		"# TYPE lumos_http_requests_total counter",
	} {
		if !strings.Contains(exposition, want) {
			t.Fatalf("fleet /metrics missing %q", want)
		}
	}
	// The rollup must equal the sum of direct replica scrapes for a
	// counter the router itself never writes.
	var direct float64
	for _, sh := range f.Topology().Shards {
		for _, rep := range sh.Replicas {
			direct += scrapeSum(t, rep.URL, `lumos_predict_tier_served_total{route="/predict"`)
		}
	}
	if direct == 0 {
		t.Fatal("replicas served nothing?")
	}
	// Re-scrape the router AFTER the direct scrapes so no serving
	// happens in between; the predict counters are quiescent now.
	rec = httptest.NewRecorder()
	f.Router().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	rolled := sumExposition(rec.Body.String(), `lumos_predict_tier_served_total{route="/predict"`)
	if rolled != direct {
		t.Fatalf("rollup %v != direct replica sum %v", rolled, direct)
	}
}

func sumExposition(exposition, prefix string) float64 {
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}
