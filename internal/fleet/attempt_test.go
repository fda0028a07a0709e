package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lumos5g/internal/mapserver"
)

// TestAttemptOutcomeRule pins the one outcome rule every route shares:
// 200 is ok; 503 or 429 with Retry-After is busy (no breaker charge);
// any other 4xx is definitive (the breaker closes); everything else
// fails against the replica.
func TestAttemptOutcomeRule(t *testing.T) {
	cases := []struct {
		name       string
		status     int
		retryAfter bool
		want       outcome
		label      string
		fails      int32
	}{
		{"ok", 200, false, outOK, "success", 0},
		{"shed", 503, true, outBusy, "shed", 0},
		{"queue full", 429, true, outBusy, "shed", 0},
		{"429 without Retry-After", 429, false, outDefinitive, "success", 0},
		{"bad request", 400, false, outDefinitive, "success", 0},
		{"503 without Retry-After", 503, false, outFailed, "error", 1},
		{"server error", 500, false, outFailed, "error", 1},
	}
	for _, tc := range cases {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.retryAfter {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(tc.status)
		}))
		rep := &Replica{ID: "r0", URL: srv.URL}
		rt := NewRouter(&Topology{Shards: []*Shard{{ID: "s0", Replicas: []*Replica{rep}}}},
			RouterConfig{ProbeInterval: time.Minute})
		res := rt.attempt(context.Background(), candidate{rep: rep}, call{method: http.MethodPost, path: "/ingest", body: []byte("[]")})
		rt.Close()
		srv.Close()
		if res.out != tc.want || res.status != tc.status {
			t.Errorf("%s: outcome %d status %d, want %d %d", tc.name, res.out, res.status, tc.want, tc.status)
		}
		if n := rt.m.attempts.Total(map[string]string{"outcome": tc.label}); n != 1 {
			t.Errorf("%s: fleet_attempts_total{outcome=%q} = %d, want 1", tc.name, tc.label, n)
		}
		if got := rep.bk.fails.Load(); got != tc.fails {
			t.Errorf("%s: breaker failure run %d, want %d", tc.name, got, tc.fails)
		}
	}
}

// TestCancelledAttemptsSpareReplica: an attempt the router itself
// abandons — the loser of a hedge, or any attempt of a client that went
// away — says nothing about the replica. It is counted as cancelled and
// leaves the breaker and the replica state alone. The router runs
// behind a real listener here, so client cancellation reaches it the
// way it does in production.
func TestCancelledAttemptsSpareReplica(t *testing.T) {
	tm, chain, points := fixture(t)
	replica := func(t *testing.T, delay time.Duration) *Replica {
		ms, err := mapserver.NewWithChain(tm, chain)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/predict" {
				time.Sleep(delay)
			}
			ms.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return &Replica{URL: srv.URL}
	}
	// router fronts the replicas with one shard. They start degraded so
	// that reading healthy proves the prober's first sweep is done; its
	// minute-long interval then keeps it from repairing states the walk
	// gets wrong.
	router := func(t *testing.T, hedge time.Duration, reps ...*Replica) (*Router, *httptest.Server) {
		for i, rep := range reps {
			rep.ID = "r" + string(rune('0'+i))
			rep.setState(StateDegraded)
		}
		rt := NewRouter(&Topology{Shards: []*Shard{{ID: "s0", Replicas: reps}}},
			RouterConfig{HedgeDelay: hedge, ProbeInterval: time.Minute})
		t.Cleanup(rt.Close)
		front := httptest.NewServer(rt)
		t.Cleanup(front.Close)
		waitStates(t, reps, StateHealthy)
		return rt, front
	}
	// settled waits until every launched attempt has been booked, then
	// checks that no replica was charged for any of them.
	settled := func(t *testing.T, rt *Router, want uint64, reps []*Replica) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.m.attempts.Total(nil) < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := rt.m.attempts.Total(nil); got != want {
			t.Fatalf("%d attempts booked, want %d", got, want)
		}
		if n := rt.m.attempts.Total(map[string]string{"outcome": "error"}); n != 0 {
			t.Errorf("fleet_attempts_total{outcome=\"error\"} = %d, want 0", n)
		}
		if n := rt.m.attempts.Total(map[string]string{"outcome": "cancelled"}); n == 0 {
			t.Error("no attempt counted as cancelled")
		}
		for _, rep := range reps {
			if rep.State() != StateHealthy || rep.bk.fails.Load() != 0 {
				t.Errorf("replica %s charged for a cancelled attempt: state=%s fails=%d",
					rep.ID, rep.State(), rep.bk.fails.Load())
			}
		}
	}

	t.Run("hedge loser", func(t *testing.T) {
		reps := []*Replica{replica(t, 100*time.Millisecond), replica(t, 0)}
		rt, front := router(t, 20*time.Millisecond, reps...)
		// Candidate rotation puts the slow replica first within two
		// queries; that query hedges to the fast one, which wins.
		var n uint64
		for i := 0; i < 4 && rt.m.hedges.Value() == 0; i++ {
			resp, err := http.Get(front.URL + predictURL(points[0], false, i))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query %d: status %d", i, resp.StatusCode)
			}
			n++
		}
		if rt.m.hedges.Value() == 0 {
			t.Fatal("no query hedged away from the slow replica")
		}
		settled(t, rt, n+rt.m.hedges.Value(), reps)
	})

	t.Run("client cancel", func(t *testing.T) {
		reps := []*Replica{replica(t, 100*time.Millisecond)}
		rt, front := router(t, time.Second, reps...)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+predictURL(points[0], false, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("request outlived its 10ms deadline: status %d", resp.StatusCode)
		}
		settled(t, rt, 1, reps)
	})
}

// waitStates blocks until every replica reads state s.
func waitStates(t *testing.T, reps []*Replica, s ReplicaState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, rep := range reps {
			all = all && rep.State() == s
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replicas never reached state %s", s)
}
