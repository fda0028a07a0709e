package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lumos5g"
	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
	"lumos5g/internal/stats"
	"lumos5g/internal/wire"
)

// Layer replays: the run's own inputs pushed through each layer's
// public function on the benchmark's clock, after the fleet has been
// shut down so nothing else runs or allocates meanwhile.

// point is one /predict query as the replica parses it.
type point struct {
	lat, lon, speed, bearing float64
	px                       geo.Pixel
}

// key is the replica cache key (and the fleet partition key) of p.
func (p point) key() engine.Key { return engine.Quantize(p.px, &p.speed, &p.bearing) }

// chainQuery builds the fallback-chain feature query exactly as the
// engine does for a /predict with speed and bearing.
func chainQuery(p point) map[string]float64 {
	rad := p.bearing * math.Pi / 180
	return map[string]float64{
		"pixel_x": float64(p.px.X), "pixel_y": float64(p.px.Y),
		"moving_speed": p.speed,
		"compass_sin":  math.Sin(rad), "compass_cos": math.Cos(rad),
	}
}

// missQueries returns the queries in [from, to) that the replicas had to
// compute: the first read of every distinct cache key, and every batch
// row (batches bypass the cache).
func missQueries(w *workload, from, to, limit int) []point {
	seen := map[engine.Key]bool{}
	var out []point
	for i := from; i < to && len(out) < limit; i++ {
		switch w.pattern[i%len(w.pattern)] {
		case kindRead:
			p := w.request(i).pt
			if k := p.key(); !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		case kindBatch:
			n := w.local(i)
			for k := 0; k < w.batchRows && len(out) < limit; k++ {
				out = append(out, w.batchPoint(n, k))
			}
		}
	}
	return out
}

// replayResult holds the per-layer replay figures.
type replayResult struct {
	enginePredictUs float64
	chainPredictUs  float64
	batchUsPerRow   float64
	allocsPerRow    float64
	kernelNsPerRow  float64
	wireDecodeUs    float64 // 0 when the workload sent no wire frames
	wireEncodeUs    float64
	frames          int
	rows            int
}

// replayPasses is how many times each replay runs; the median pass is
// reported.
const replayPasses = 5

// timePasses returns the median wall time of fn over replayPasses runs.
func timePasses(fn func()) time.Duration {
	ds := make([]float64, replayPasses)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(stats.Median(ds))
}

type batchInput struct {
	pxs              []geo.Pixel
	speeds, bearings []*float64
}

func batchFromQueries(qs []wire.Query) batchInput {
	b := batchInput{pxs: make([]geo.Pixel, len(qs)),
		speeds: make([]*float64, len(qs)), bearings: make([]*float64, len(qs))}
	for i, q := range qs {
		b.pxs[i] = geo.Pixelize(geo.LatLon{Lat: q.Lat, Lon: q.Lon}, geo.DefaultZoom)
		b.speeds[i], b.bearings[i] = q.Speed, q.Bearing
	}
	return b
}

// replayLayers times the engine, chain and kernel on the run's cache-
// miss queries, and the wire codec plus the batch engine on the run's
// router→replica frames (or, without frames, on the misses in chunks of
// chunkRows).
func replayLayers(eng *engine.Engine, chain *lumos5g.FallbackChain, points []point, frames [][]byte, chunkRows int) (replayResult, error) {
	var r replayResult
	if len(points) == 0 {
		return r, fmt.Errorf("no queries to replay")
	}
	n := float64(len(points))
	d := timePasses(func() {
		for i := range points {
			p := &points[i]
			eng.PredictInterval(p.px, &p.speed, &p.bearing)
		}
	})
	r.enginePredictUs = d.Seconds() * 1e6 / n

	qs := make([]map[string]float64, len(points))
	for i, p := range points {
		qs[i] = chainQuery(p)
	}
	d = timePasses(func() {
		for _, q := range qs {
			chain.PredictInterval(q)
		}
	})
	r.chainPredictUs = d.Seconds() * 1e6 / n

	// Kernel: the tier that serves these queries, on their feature
	// vectors, in chunkRows blocks.
	tier := servingTier(chain, qs[0])
	if tier == nil {
		return r, fmt.Errorf("no chain tier serves a full /predict query")
	}
	names := tier.FeatureNames()
	X := make([][]float64, len(qs))
	for i, q := range qs {
		X[i] = make([]float64, len(names))
		for j, nm := range names {
			X[i][j] = q[nm]
		}
	}
	d = timePasses(func() {
		for i := 0; i < len(X); i += chunkRows {
			tier.PredictBatch(X[i:min(i+chunkRows, len(X))])
		}
	})
	r.kernelNsPerRow = float64(d.Nanoseconds()) / n

	var batches []batchInput
	for _, f := range frames {
		q, err := wire.DecodeQueries(f, 1<<16)
		if err != nil {
			return r, fmt.Errorf("replay frame: %w", err)
		}
		batches = append(batches, batchFromQueries(q))
	}
	r.frames = len(frames)
	if len(batches) == 0 {
		for i := 0; i < len(points); i += chunkRows {
			var q []wire.Query
			for _, p := range points[i:min(i+chunkRows, len(points))] {
				sp, br := p.speed, p.bearing
				q = append(q, wire.Query{Lat: p.lat, Lon: p.lon, Speed: &sp, Bearing: &br})
			}
			batches = append(batches, batchFromQueries(q))
		}
	}
	for _, b := range batches {
		r.rows += len(b.pxs)
	}
	runBatches := func() {
		for _, b := range batches {
			eng.PredictIntervalBatch(b.pxs, b.speeds, b.bearings)
		}
	}
	d = timePasses(runBatches)
	r.batchUsPerRow = d.Seconds() * 1e6 / float64(r.rows)
	r.allocsPerRow = float64(mallocs(runBatches)) / float64(r.rows)

	if len(frames) > 0 {
		d = timePasses(func() {
			for _, f := range frames {
				_, _ = wire.DecodeQueries(f, 1<<16)
			}
		})
		r.wireDecodeUs = d.Seconds() * 1e6 / float64(len(frames))
		results := make([][]wire.Result, len(batches))
		for i, b := range batches {
			for _, p := range eng.PredictIntervalBatch(b.pxs, b.speeds, b.bearings) {
				results[i] = append(results[i], wire.Result{Mbps: p.Mbps, Class: p.Class, Source: p.Source,
					Tier: p.Tier, Degraded: p.Degraded, Missing: p.Missing, P10: p.P10, P90: p.P90,
					HasInterval: p.HasInterval})
			}
		}
		var buf []byte
		var encErr error
		d = timePasses(func() {
			for _, rs := range results {
				buf, encErr = wire.AppendResultsIntervals(buf[:0], rs)
			}
		})
		if encErr != nil {
			return r, fmt.Errorf("replay encode: %w", encErr)
		}
		r.wireEncodeUs = d.Seconds() * 1e6 / float64(len(frames))
	}
	return r, nil
}

// servingTier is the first chain tier whose features q carries.
func servingTier(chain *lumos5g.FallbackChain, q map[string]float64) *lumos5g.Predictor {
	for _, t := range chain.Tiers() {
		ok := true
		for _, nm := range t.FeatureNames() {
			if _, has := q[nm]; !has {
				ok = false
				break
			}
		}
		if ok {
			return t
		}
	}
	return nil
}

// mallocs counts the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
