package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

func mkTopo(shards, replicas int) *Topology {
	t := &Topology{}
	for i := 0; i < shards; i++ {
		sh := &Shard{ID: fmt.Sprintf("s%d", i)}
		for j := 0; j < replicas; j++ {
			sh.Replicas = append(sh.Replicas, &Replica{
				ID:  fmt.Sprintf("s%dr%d", i, j),
				URL: fmt.Sprintf("http://127.0.0.1:%d", 40000+i*10+j),
			})
		}
		t.Shards = append(t.Shards, sh)
	}
	return t
}

func TestRendezvousProperties(t *testing.T) {
	ids := []string{"s0", "s1", "s2", "s3"}
	// Deterministic and total: every cell has exactly one owner, stable
	// across calls.
	counts := map[string]int{}
	for col := int32(-50); col < 50; col++ {
		for row := int32(-50); row < 50; row++ {
			o := OwnerID(ids, col, row)
			if o2 := OwnerID(ids, col, row); o2 != o {
				t.Fatalf("owner of (%d,%d) unstable: %s vs %s", col, row, o, o2)
			}
			counts[o]++
		}
	}
	// Balance: rendezvous should spread 10k cells roughly evenly; a
	// shard owning under half its fair share means a broken hash.
	for _, id := range ids {
		if counts[id] < 10000/len(ids)/2 {
			t.Fatalf("shard %s owns only %d of 10000 cells", id, counts[id])
		}
	}
	// Minimal remap: removing s3 must move ONLY the cells s3 owned.
	smaller := ids[:3]
	for col := int32(-50); col < 50; col++ {
		for row := int32(-50); row < 50; row++ {
			before := OwnerID(ids, col, row)
			after := OwnerID(smaller, col, row)
			if before != "s3" && after != before {
				t.Fatalf("cell (%d,%d) moved %s→%s though %s survived", col, row, before, after, before)
			}
		}
	}
}

func TestRankShardsDrainingLast(t *testing.T) {
	topo := mkTopo(3, 1)
	k := engine.Key{Col: 7, Row: 11, SpeedB: -1, BearingB: -1}
	ranked := topo.RankShards(k)
	if len(ranked) != 3 {
		t.Fatalf("ranked %d shards", len(ranked))
	}
	if ranked[0].ID != OwnerID([]string{"s0", "s1", "s2"}, 7, 11) {
		t.Fatalf("rank head %s is not the rendezvous owner", ranked[0].ID)
	}
	// Drain the owner: it must fall to the back, and Owner() must pick
	// a live shard.
	owner := ranked[0]
	owner.SetDraining(true)
	reranked := topo.RankShards(k)
	if reranked[len(reranked)-1] != owner {
		t.Fatal("draining shard not ranked last")
	}
	if got := topo.Owner(k); got == owner {
		t.Fatal("Owner returned a draining shard with live shards available")
	}
	owner.SetDraining(false)
	// The key's sensor portion must not affect shard choice: same cell,
	// different sensors, same owner.
	k2 := engine.Key{Col: 7, Row: 11, SpeedB: 30, BearingB: 4}
	if topo.Owner(k2) != topo.Owner(k) {
		t.Fatal("sensor buckets changed the owning shard")
	}
}

func TestCandidatesPreferHealthyClosedBreakers(t *testing.T) {
	sh := &Shard{ID: "s0"}
	h := &Replica{ID: "h"}
	d := &Replica{ID: "d"}
	dn := &Replica{ID: "dn"}
	d.setState(StateDegraded)
	dn.setState(StateDown)
	sh.Replicas = []*Replica{dn, d, h}
	for i := 0; i < 5; i++ {
		c := sh.candidates()
		if c[0] != h || c[1] != d || c[2] != dn {
			t.Fatalf("candidate order: %s,%s,%s", c[0].ID, c[1].ID, c[2].ID)
		}
	}
	// An open breaker demotes within the same state: a healthy replica
	// with an open circuit ranks behind a healthy one without.
	h2 := &Replica{ID: "h2"}
	sh2 := &Shard{ID: "s1", Replicas: []*Replica{h, h2}}
	for i := 0; i < 3; i++ {
		h2.bk.failure()
	}
	if c := sh2.candidates(); c[0] != h || c[1] != h2 {
		t.Fatalf("open breaker not demoted: %s,%s", c[0].ID, c[1].ID)
	}
	// Rotation: with equal ranks, the starting replica cycles.
	a, b := &Replica{ID: "a"}, &Replica{ID: "b"}
	sh3 := &Shard{ID: "s2", Replicas: []*Replica{a, b}}
	firsts := map[string]bool{}
	for i := 0; i < 4; i++ {
		firsts[sh3.candidates()[0].ID] = true
	}
	if len(firsts) != 2 {
		t.Fatalf("rotation stuck: only %v led", firsts)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := breaker{threshold: 3, cooldown: 40 * time.Millisecond}
	if !b.allow() {
		t.Fatal("new breaker not closed")
	}
	b.failure()
	b.failure()
	if !b.allow() {
		t.Fatal("opened below threshold")
	}
	b.failure()
	if b.allow() {
		t.Fatal("did not open at threshold")
	}
	// Success closes it immediately (the prober's recovery path).
	b.success()
	if !b.allow() {
		t.Fatal("success did not close the breaker")
	}
	// Cooldown expiry reopens routing even without a success.
	b.failure()
	b.failure()
	b.failure()
	if b.allow() {
		t.Fatal("did not open")
	}
	time.Sleep(60 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown did not expire")
	}
}

func TestRollupSums(t *testing.T) {
	exp1 := `# HELP lumos_http_requests_total HTTP requests.
# TYPE lumos_http_requests_total counter
lumos_http_requests_total{route="/predict",code="200"} 10
lumos_http_requests_total{route="/healthz",code="200"} 2
# TYPE lumos_lat_bucket histogram
lumos_lat_bucket{le="0.1"} 4
lumos_lat_bucket{le="+Inf"} 10
this line is garbage
`
	exp2 := `# HELP lumos_http_requests_total HTTP requests.
# TYPE lumos_http_requests_total counter
lumos_http_requests_total{route="/predict",code="200"} 5
lumos_lat_bucket{le="0.1"} 1
lumos_lat_bucket{le="+Inf"} 3
lumos_only_here 7.5
`
	ru := newRollup()
	if err := ru.add(strings.NewReader(exp1)); err != nil {
		t.Fatal(err)
	}
	if err := ru.add(strings.NewReader(exp2)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ru.write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lumos_http_requests_total{route="/predict",code="200"} 15`,
		`lumos_http_requests_total{route="/healthz",code="200"} 2`,
		`lumos_lat_bucket{le="0.1"} 5`,
		`lumos_lat_bucket{le="+Inf"} 13`,
		`lumos_only_here 7.5`,
		`# TYPE lumos_http_requests_total counter`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rollup missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "garbage") {
		t.Fatal("malformed line leaked into the rollup")
	}
	// Every replica repeats the same HELP/TYPE comments; the merged
	// exposition must declare each exactly once.
	for _, meta := range []string{
		`# HELP lumos_http_requests_total HTTP requests.`,
		`# TYPE lumos_http_requests_total counter`,
		`# TYPE lumos_lat_bucket histogram`,
	} {
		if n := strings.Count(out, meta); n != 1 {
			t.Fatalf("meta line %q appears %d times in:\n%s", meta, n, out)
		}
	}
}

func TestPartitionMapCoversDisjointly(t *testing.T) {
	tm, _, _ := fixture(t)
	ids := []string{"s0", "s1", "s2"}
	parts := PartitionMap(tm, ids)
	total := 0
	for _, id := range ids {
		total += len(parts[id].Cells)
	}
	if total != len(tm.Cells) {
		t.Fatalf("partitions hold %d cells, map has %d", total, len(tm.Cells))
	}
	for id, part := range parts {
		for key := range part.Cells {
			if own := OwnerID(ids, int32(key.Col), int32(key.Row)); own != id {
				t.Fatalf("cell %v in shard %s but owned by %s", key, id, own)
			}
		}
	}
}

// FuzzRouteKey: arbitrary query inputs must never panic, must quantize
// exactly as the serving path does, and must map to exactly one live
// shard deterministically.
func FuzzRouteKey(f *testing.F) {
	f.Add(44.97, -93.26, 5.0, 180.0, uint8(3))
	f.Add(0.0, 0.0, 0.0, 0.0, uint8(0))
	f.Add(-90.0, 180.0, 500.0, -360.0, uint8(3))
	f.Add(91.0, -181.0, 1e18, 1e18, uint8(3)) // out of validated range on purpose
	topo := mkTopo(4, 1)
	topo.Shards[3].SetDraining(true)
	liveIDs := []string{"s0", "s1", "s2"}
	f.Fuzz(func(t *testing.T, lat, lon, speed, bearing float64, flags uint8) {
		var sp, br *float64
		if flags&1 != 0 {
			sp = &speed
		}
		if flags&2 != 0 {
			br = &bearing
		}
		k := RouteKey(lat, lon, sp, br)
		if k2 := RouteKey(lat, lon, sp, br); k2 != k {
			t.Fatalf("RouteKey not deterministic: %+v vs %+v", k, k2)
		}
		// Agreement with the serving path's quantization (the cache key).
		px := geo.Pixelize(geo.LatLon{Lat: lat, Lon: lon}, geo.DefaultZoom)
		if want := engine.Quantize(px, sp, br); k != want {
			t.Fatalf("RouteKey %+v disagrees with engine.Quantize %+v", k, want)
		}
		// Exactly one live owner, consistent with the pure partition
		// function over the live shard set.
		owner := topo.Owner(k)
		if owner == nil {
			t.Fatal("no owner")
		}
		if owner.Draining() {
			t.Fatalf("owner %s is draining with live shards available", owner.ID)
		}
		if want := OwnerID(liveIDs, k.Col, k.Row); owner.ID != want {
			t.Fatalf("Owner picked %s, partition function says %s", owner.ID, want)
		}
	})
}

// TestRouterHealthz pins the router's /healthz verdict: ok while every
// non-draining shard keeps a replica that is not down, and not ok
// without a topology at all. The handler is driven directly so replica
// states are exactly what the test sets (the prober would overwrite
// them from the unreachable placeholder URLs).
func TestRouterHealthz(t *testing.T) {
	health := func(topo *Topology) fleetHealth {
		t.Helper()
		rt := &Router{}
		if topo != nil {
			rt.topo.Store(topo)
		}
		rec := httptest.NewRecorder()
		rt.handleHealth(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("healthz: %d %q", rec.Code, rec.Header().Get("Content-Type"))
		}
		var h fleetHealth
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("healthz body %q: %v", rec.Body.String(), err)
		}
		return h
	}

	topo := mkTopo(2, 2)
	topo.Shards[0].Replicas[1].setState(StateDegraded)
	if h := health(topo); !h.OK || len(h.Shards) != 2 || !h.Shards[0].OK || !h.Shards[1].OK ||
		h.Shards[0].Replicas[1].State != "degraded" {
		t.Fatalf("healthy fleet: %+v", h)
	}

	// Every replica of s1 down: the fleet can no longer serve s1's keys.
	for _, rep := range topo.Shards[1].Replicas {
		rep.setState(StateDown)
	}
	if h := health(topo); h.OK || h.Shards[1].OK || h.Shards[1].Draining {
		t.Fatalf("shard with every replica down: %+v", h)
	}

	// The same dead shard while draining is leaving on purpose: its keys
	// already rank elsewhere, so the fleet stays ok.
	topo.Shards[1].SetDraining(true)
	if h := health(topo); !h.OK || h.Shards[1].OK || !h.Shards[1].Draining {
		t.Fatalf("draining dead shard: %+v", h)
	}

	if h := health(nil); h.OK || len(h.Shards) != 0 {
		t.Fatalf("nil topology: %+v", h)
	}
}
