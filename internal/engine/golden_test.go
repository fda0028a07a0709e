package engine_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/rng"
)

var (
	calOnce  sync.Once
	calTM    *lumos5g.ThroughputMap
	calChain *lumos5g.FallbackChain
	calData  *lumos5g.Dataset
)

// calibratedFixture is the default calibrated L+M+C → L+M → L chain
// trained on a small Airport campaign, the shape every daemon serves.
func calibratedFixture(t *testing.T) (*lumos5g.ThroughputMap, *lumos5g.FallbackChain, *lumos5g.Dataset) {
	t.Helper()
	calOnce.Do(func() {
		area, err := lumos5g.AreaByName("Airport")
		if err != nil {
			panic(err)
		}
		cfg := lumos5g.CampaignConfig{Seed: 1, WalkPasses: 2, BackgroundUEProb: 0.1}
		calData, _ = lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
		calTM = lumos5g.BuildThroughputMap(calData, 2)
		sc := lumos5g.Scale{GBDT: gbdt.Config{Estimators: 40, MaxDepth: 5}, Seed: 1}
		calChain, err = lumos5g.TrainCalibratedFallbackChain(calData, lumos5g.DefaultFallbackGroups, lumos5g.ModelGDBT, sc)
		if err != nil {
			panic(err)
		}
	})
	return calTM, calChain, calData
}

// goldenQuery is one engine query; nil sensors are absent.
type goldenQuery struct {
	px             geo.Pixel
	speed, bearing *float64
}

// goldenQueries draws a seeded query set from the campaign's records.
// Each query takes one shape in turn, so every demotion cause appears:
// full sensors, absent speed, absent bearing, out-of-range speed, NaN
// bearing, no sensors at all, an off-map pixel, and a pixel outside the
// tile space, which no tier accepts.
func goldenQueries(d *lumos5g.Dataset, n int) []goldenQuery {
	src := rng.New(13)
	qs := make([]goldenQuery, n)
	for i := range qs {
		r := d.Records[src.Intn(len(d.Records))]
		speed, bearing := r.SpeedKmh, r.CompassDeg
		q := goldenQuery{
			px:      geo.Pixelize(geo.LatLon{Lat: r.Latitude, Lon: r.Longitude}, geo.DefaultZoom),
			speed:   &speed,
			bearing: &bearing,
		}
		switch i % 8 {
		case 1:
			q.speed = nil
		case 2:
			q.bearing = nil
		case 3:
			over := 500 + 100*src.Float64()
			q.speed = &over
		case 4:
			nan := math.NaN()
			q.bearing = &nan
		case 5:
			q.speed, q.bearing = nil, nil
		case 6:
			q.px = geo.Pixel{X: 1, Y: 1, Zoom: geo.DefaultZoom}
		case 7:
			q.px = geo.Pixel{X: -5, Y: -5, Zoom: geo.DefaultZoom}
		}
		qs[i] = q
	}
	return qs
}

// digestPredictions hashes every served field of an answer except the
// walk time: value bits, band bits, attribution and the missing list.
// A map-mean answer equal to the engine's map prior hashes as a marker
// instead of its bits: the prior is a sum over cells whose last bits
// are not pinned here.
func digestPredictions(ps []engine.Prediction, prior float64) string {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, p := range ps {
		for _, f := range []float64{p.Mbps, p.P10, p.P90} {
			if p.Source == "map-mean" && f == prior {
				u64(^uint64(0)) // a NaN pattern no answer carries
			} else {
				u64(math.Float64bits(f))
			}
		}
		u64(uint64(int64(p.Tier)))
		str(p.Source)
		str(p.Class)
		u64(uint64(len(p.Missing)))
		for _, m := range p.Missing {
			str(m)
		}
		var flags uint64
		if p.Degraded {
			flags |= 1
		}
		if p.HasInterval {
			flags |= 2
		}
		u64(flags)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenEngineAnswers pins the engine's answers on the calibrated
// chain and on a map-only engine, through every query entry point, to
// digests recorded before the feature vector became fixed-slot. Any
// change to tier selection, the values fed to a tier, or the missing
// list moves a digest.
func TestGoldenEngineAnswers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned for amd64 floating point")
	}
	tm, chain, d := calibratedFixture(t)
	qs := goldenQueries(d, 400)
	pxs := make([]geo.Pixel, len(qs))
	speeds := make([]*float64, len(qs))
	bearings := make([]*float64, len(qs))
	for i, q := range qs {
		pxs[i], speeds[i], bearings[i] = q.px, q.speed, q.bearing
	}
	full, err := engine.New(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	mapOnly := full.WithChain(nil)

	want := map[string]string{
		"chain/Predict":              "e100811cbc36e450",
		"chain/PredictInterval":      "a7a2702ffa96853d",
		"chain/PredictBatch":         "e100811cbc36e450",
		"chain/PredictIntervalBatch": "a7a2702ffa96853d",
		"map/Predict":                "3eb4adf8a485afd7",
		"map/PredictInterval":        "3a6851deedb87c87",
		"map/PredictBatch":           "3eb4adf8a485afd7",
		"map/PredictIntervalBatch":   "3a6851deedb87c87",
	}
	for name, e := range map[string]*engine.Engine{"chain": full, "map": mapOnly} {
		single := make([]engine.Prediction, len(qs))
		ival := make([]engine.Prediction, len(qs))
		for i, q := range qs {
			single[i] = e.Predict(q.px, q.speed, q.bearing)
			ival[i] = e.PredictInterval(q.px, q.speed, q.bearing)
		}
		got := map[string]string{
			name + "/Predict":              digestPredictions(single, e.MapPrior()),
			name + "/PredictInterval":      digestPredictions(ival, e.MapPrior()),
			name + "/PredictBatch":         digestPredictions(e.PredictBatch(pxs, speeds, bearings), e.MapPrior()),
			name + "/PredictIntervalBatch": digestPredictions(e.PredictIntervalBatch(pxs, speeds, bearings), e.MapPrior()),
		}
		if name == "chain" {
			// Every tier a sensor-only query can reach must serve.
			tiers := map[int]bool{}
			for _, p := range single {
				tiers[p.Tier] = true
			}
			for _, tier := range []int{1, 2, len(chain.Tiers())} {
				if !tiers[tier] {
					t.Errorf("query set never reaches tier %d (served: %v)", tier, tiers)
				}
			}
		}
		for k, g := range got {
			if g != want[k] {
				t.Errorf("%s digest %s, want %s", k, g, want[k])
			}
		}
	}
}
