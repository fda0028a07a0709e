package engine_test

import (
	"math"
	"sync"
	"testing"

	"lumos5g"
	"lumos5g/internal/core"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

var (
	fixOnce  sync.Once
	fixTM    *lumos5g.ThroughputMap
	fixChain *lumos5g.FallbackChain
	fixPx    geo.Pixel
)

func fixture(t *testing.T) (*lumos5g.ThroughputMap, *lumos5g.FallbackChain, geo.Pixel) {
	t.Helper()
	fixOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 2, BackgroundUEProb: 0.1}
		clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		fixTM = lumos5g.BuildThroughputMap(clean, 2)
		pred, err := lumos5g.Train(clean, lumos5g.GroupLM, lumos5g.ModelGDBT, lumos5g.Scale{Seed: 1})
		if err != nil {
			panic(err)
		}
		fixChain, err = lumos5g.ChainFromPredictor(pred, engine.MapMean(fixTM))
		if err != nil {
			panic(err)
		}
		r := clean.Records[10]
		fixPx = geo.Pixelize(geo.LatLon{Lat: r.Latitude, Lon: r.Longitude}, geo.DefaultZoom)
	})
	return fixTM, fixChain, fixPx
}

func TestNewRejectsNilMap(t *testing.T) {
	if _, err := engine.New(nil, nil); err == nil {
		t.Fatal("New(nil, nil) must error")
	}
}

func TestMapOnlyServing(t *testing.T) {
	tm, _, px := fixture(t)
	e, err := engine.New(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Chain() != nil {
		t.Fatal("chainless engine reports a chain")
	}
	p := e.Predict(px, nil, nil)
	if !p.Degraded || p.Tier != -1 {
		t.Fatalf("map-only answer not marked degraded tier -1: %+v", p)
	}
	if p.Source != "map-cell" && p.Source != "map-mean" {
		t.Fatalf("map-only source: %q", p.Source)
	}
	if !p.Finite() || p.Mbps <= 0 {
		t.Fatalf("map-only value: %v", p.Mbps)
	}
	if p.Class == "" {
		t.Fatal("map-only answer missing class")
	}

	// A pixel far outside the campaign falls back to the map-wide mean.
	far := e.Predict(geo.Pixel{X: 1, Y: 1, Zoom: geo.DefaultZoom}, nil, nil)
	if far.Source != "map-mean" || far.Mbps != e.MapPrior() {
		t.Fatalf("off-map answer: %+v (prior %v)", far, e.MapPrior())
	}
}

func TestChainServingAndGenerations(t *testing.T) {
	tm, chain, px := fixture(t)
	e, err := engine.New(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	speed := 5.0
	p := e.Predict(px, &speed, nil)
	if p.Tier < 0 {
		t.Fatalf("chain engine answered from the map: %+v", p)
	}
	if !p.Finite() || p.Walk < 0 {
		t.Fatalf("chain answer: mbps=%v walk=%v", p.Mbps, p.Walk)
	}

	// WithChain derives a generation sharing map and prior; nil returns
	// the engine to map-only serving without touching the original.
	g2 := e.WithChain(nil)
	if g2.Chain() != nil || g2.Map() != e.Map() || g2.MapPrior() != e.MapPrior() {
		t.Fatal("WithChain(nil) generation does not share map/prior")
	}
	if e.Chain() == nil {
		t.Fatal("deriving a generation mutated the parent")
	}
	if q := g2.Predict(px, &speed, nil); !q.Degraded || q.Tier != -1 {
		t.Fatalf("derived map-only generation still serves the chain: %+v", q)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	tm, chain, px := fixture(t)
	e, err := engine.New(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	speed, bearing := 3.0, 90.0
	pxs := []geo.Pixel{px, {X: px.X + 10, Y: px.Y + 10, Zoom: px.Zoom}, px}
	speeds := []*float64{&speed, nil, nil}
	bearings := []*float64{&bearing, nil, &bearing}
	batch := e.PredictBatch(pxs, speeds, bearings)
	if len(batch) != len(pxs) {
		t.Fatalf("batch length %d, want %d", len(batch), len(pxs))
	}
	for i := range pxs {
		single := e.Predict(pxs[i], speeds[i], bearings[i])
		b := batch[i]
		if b.Mbps != single.Mbps || b.Tier != single.Tier || b.Source != single.Source ||
			b.Class != single.Class || b.Degraded != single.Degraded {
			t.Fatalf("row %d: batch %+v != single %+v", i, b, single)
		}
	}

	// Nil sensor slices mean "no query carries that sensor".
	bare := e.PredictBatch(pxs[:1], nil, nil)
	if want := e.Predict(pxs[0], nil, nil); bare[0].Mbps != want.Mbps || bare[0].Tier != want.Tier {
		t.Fatalf("nil-slice batch row %+v != single %+v", bare[0], want)
	}
}

func TestMapMeanEdgeCases(t *testing.T) {
	// Empty maps floor at 1 Mbps.
	if m := engine.MapMean(&lumos5g.ThroughputMap{}); m != 1 {
		t.Fatalf("empty map mean: %v", m)
	}
	// Non-finite cells are skipped, not summed: a single poisoned cell
	// must not turn the prior into NaN/Inf.
	tm := &lumos5g.ThroughputMap{Cells: map[geo.GridKey]*core.MapCell{
		{Col: 0, Row: 0}: {MeanMbps: 100, N: 4},
		{Col: 1, Row: 0}: {MeanMbps: math.Inf(1), N: 4},
		{Col: 2, Row: 0}: {MeanMbps: math.NaN(), N: 4},
	}}
	if m := engine.MapMean(tm); m != 100 {
		t.Fatalf("poisoned map mean: %v, want 100", m)
	}
}

// TestMapMeanDeterministic: the map-wide prior must not depend on Go's
// randomised map iteration order — every call on one map returns the
// same bits, so the map-mean answer is reproducible across engine
// constructions.
func TestMapMeanDeterministic(t *testing.T) {
	tm, _, _ := fixture(t)
	want := math.Float64bits(engine.MapMean(tm))
	for i := 0; i < 64; i++ {
		if got := math.Float64bits(engine.MapMean(tm)); got != want {
			t.Fatalf("call %d: MapMean bits %#x != first call %#x", i, got, want)
		}
	}
}

func TestFinite(t *testing.T) {
	if !(engine.Prediction{Mbps: 42}).Finite() {
		t.Fatal("42 is finite")
	}
	if (engine.Prediction{Mbps: math.NaN()}).Finite() {
		t.Fatal("NaN is not finite")
	}
	if (engine.Prediction{Mbps: math.Inf(1)}).Finite() {
		t.Fatal("+Inf is not finite")
	}
}

func TestQuantizeTotality(t *testing.T) {
	px := geo.Pixel{X: 100, Y: 200, Zoom: geo.DefaultZoom}
	nan, inf := math.NaN(), math.Inf(1)
	huge, negHuge := 1e12, -1e12

	// Non-finite sensors quantize as absent.
	if k := engine.Quantize(px, &nan, &inf); k.SpeedB != -1 || k.BearingB != -1 {
		t.Fatalf("non-finite sensors: %+v", k)
	}
	// Out-of-range magnitudes saturate instead of overflowing.
	if k := engine.Quantize(px, &huge, nil); k.SpeedB != math.MaxInt16 {
		t.Fatalf("huge speed: %+v", k)
	}
	if k := engine.Quantize(px, &negHuge, nil); k.SpeedB != math.MinInt16 {
		t.Fatalf("huge negative speed: %+v", k)
	}
	// Bearing wraps into [0, 360) and lands in one of 16 sectors.
	for _, deg := range []float64{-720, -359.9, -0.0001, 0, 359.9, 720, 1e9} {
		d := deg
		k := engine.Quantize(px, nil, &d)
		if k.BearingB < 0 || k.BearingB >= engine.BearingSectors {
			t.Fatalf("bearing %v: sector %d out of range", deg, k.BearingB)
		}
	}
}
