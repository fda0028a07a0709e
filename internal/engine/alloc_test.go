package engine_test

import (
	"testing"

	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

// TestPredictAllocBudget guards the serving walk's allocations for a
// full L+M query (pixel, speed and bearing) on the calibrated chain, so
// per-query garbage such as a feature map or a pool cannot creep back.
func TestPredictAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts need the trained fixture")
	}
	tm, chain, d := calibratedFixture(t)
	e, err := engine.New(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Records[0]
	px := geo.Pixelize(geo.LatLon{Lat: r.Latitude, Lon: r.Longitude}, geo.DefaultZoom)
	speed, bearing := r.SpeedKmh, r.CompassDeg
	const rows = 256
	pxs := make([]geo.Pixel, rows)
	speeds := make([]*float64, rows)
	bearings := make([]*float64, rows)
	for i := range pxs {
		pxs[i], speeds[i], bearings[i] = px, &speed, &bearing
	}

	single := testing.AllocsPerRun(200, func() { e.PredictInterval(px, &speed, &bearing) })
	batch := testing.AllocsPerRun(20, func() { e.PredictIntervalBatch(pxs, speeds, bearings) })
	t.Logf("PredictInterval %v allocs, %d-row PredictIntervalBatch %v allocs", single, rows, batch)
	const singleBudget, batchBudget = 2, 273
	if single > singleBudget {
		t.Errorf("PredictInterval makes %v allocs, budget %d", single, singleBudget)
	}
	if batch > batchBudget {
		t.Errorf("%d-row PredictIntervalBatch makes %v allocs, budget %d", rows, batch, batchBudget)
	}
}
