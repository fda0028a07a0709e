package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos5g"
	"lumos5g/internal/wire"
)

// Calibrated fixture for the interval fan-out tests: same campaign
// recipe as fixture(), but the chain carries conformal offsets so the
// replicas serve real bands.
var (
	calOnce   sync.Once
	calTM     *lumos5g.ThroughputMap
	calChain  *lumos5g.FallbackChain
	calPoints [][2]float64
)

func calFixture(t *testing.T) (*lumos5g.ThroughputMap, *lumos5g.FallbackChain, [][2]float64) {
	t.Helper()
	calOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 5, WalkPasses: 3, BackgroundUEProb: 0.1}
		clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		calTM = lumos5g.BuildThroughputMap(clean, 2)
		calChain, err = lumos5g.TrainCalibratedFallbackChain(clean, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 5})
		if err != nil {
			panic(err)
		}
		step := len(clean.Records) / 16
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(clean.Records); i += step {
			r := clean.Records[i]
			calPoints = append(calPoints, [2]float64{r.Latitude, r.Longitude})
		}
	})
	return calTM, calChain, calPoints
}

func startCalibratedFleet(t *testing.T) (*Fleet, [][2]float64) {
	t.Helper()
	tm, chain, points := calFixture(t)
	cfg := testFleetConfig()
	cfg.Shards, cfg.Replicas = 2, 1
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
	return f, points
}

// routerDo runs one request through the router and returns status+body.
func routerDo(f *Fleet, req *http.Request) (int, []byte, http.Header) {
	rec := httptest.NewRecorder()
	f.Router().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Header()
}

type ivalRow struct {
	Mbps float64 `json:"mbps"`
	P10  float64 `json:"p10"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
}

// TestFleetPredictIntervals: the router forwards the intervals
// negotiation to the owning replica and the answer carries an ordered
// band; interval-off answers keep the historical field set.
func TestFleetPredictIntervals(t *testing.T) {
	f, points := startCalibratedFleet(t)
	for i, p := range points[:4] {
		u := predictURL(p, true, i) + "&intervals=1"
		code, body, _ := routerDo(f, httptest.NewRequest(http.MethodGet, u, nil))
		if code != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, code, body)
		}
		var iv ivalRow
		if err := json.Unmarshal(body, &iv); err != nil {
			t.Fatal(err)
		}
		if !(iv.P10 <= iv.P50 && iv.P50 <= iv.P90) || iv.P50 != iv.Mbps || iv.P10 < 0 {
			t.Fatalf("query %d: bad band %+v", i, iv)
		}

		code, body, _ = routerDo(f, httptest.NewRequest(http.MethodGet, predictURL(p, true, i), nil))
		if code != http.StatusOK {
			t.Fatalf("point query %d: %d %s", i, code, body)
		}
		if strings.Contains(string(body), `"p10"`) {
			t.Fatalf("interval-off fleet answer leaks the band: %s", body)
		}
	}
}

// TestFleetBatchIntervals: the scatter-gather path forwards the
// interval negotiation to every shard, the JSON envelope rows carry
// bands, and the merged binary v2 frame agrees with them.
func TestFleetBatchIntervals(t *testing.T) {
	f, points := startCalibratedFleet(t)
	var sb strings.Builder
	sb.WriteString("[")
	n := 8
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		p := points[i%len(points)]
		fmt.Fprintf(&sb, `{"lat":%.8f,"lon":%.8f,"speed":%d,"bearing":%d}`, p[0], p[1], i%20, (i*37)%360)
	}
	sb.WriteString("]")
	batch := sb.String()

	req := httptest.NewRequest(http.MethodPost, "/predict/batch?intervals=1", strings.NewReader(batch))
	req.Header.Set("Content-Type", "application/json")
	code, body, _ := routerDo(f, req)
	if code != http.StatusOK {
		t.Fatalf("json interval batch: %d %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial || len(resp.Rows) != n {
		t.Fatalf("partial=%v rows=%d", resp.Partial, len(resp.Rows))
	}
	for i, row := range resp.Rows {
		if row.P10 == nil || row.P50 == nil || row.P90 == nil || row.Calibrated == nil {
			t.Fatalf("row %d: missing band %+v", i, row)
		}
		if !(*row.P10 <= *row.P50 && *row.P50 <= *row.P90) || *row.P50 != *row.Mbps {
			t.Fatalf("row %d: bad band %+v", i, row)
		}
	}

	req = httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(batch))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentTypeIntervals)
	code, frame, hdr := routerDo(f, req)
	if code != http.StatusOK {
		t.Fatalf("binary interval batch: %d %s", code, frame)
	}
	if ct := hdr.Get("Content-Type"); ct != wire.ContentTypeIntervals {
		t.Fatalf("content type %q", ct)
	}
	rs, err := wire.DecodeResults(frame, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n {
		t.Fatalf("binary rows %d", len(rs))
	}
	for i := range rs {
		row := resp.Rows[i]
		if rs[i].Mbps != *row.Mbps || rs[i].P10 != *row.P10 || rs[i].P90 != *row.P90 || rs[i].HasInterval != *row.Calibrated {
			t.Fatalf("row %d: binary %+v != json %+v", i, rs[i], row)
		}
	}

	// Interval-off JSON envelope keeps the historical field set.
	req = httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(batch))
	req.Header.Set("Content-Type", "application/json")
	code, body, _ = routerDo(f, req)
	if code != http.StatusOK {
		t.Fatalf("point batch: %d %s", code, body)
	}
	if strings.Contains(string(body), `"p10"`) || strings.Contains(string(body), `"calibrated"`) {
		t.Fatalf("interval-off fleet batch leaks the band: %s", body)
	}
}
