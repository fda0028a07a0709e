// Package engine is the transport-agnostic prediction core of the
// serving stack: one immutable (throughput map, fallback chain, prior)
// triple that answers quantized prediction queries, with no knowledge of
// HTTP, JSON, caches or metrics. The HTTP layer (internal/mapserver)
// renders its answers onto the wire; the fleet router (internal/fleet)
// reuses its query quantization as the shard partition key.
//
// An Engine is one model generation. Hot swaps replace the whole Engine
// (WithChain derives a new generation sharing the map and prior), which
// is what lets the serving layer pair each generation with exactly one
// cache: a swapped-out model's answers die with its generation instead
// of leaking across the swap.
package engine

import (
	"fmt"
	"math"
	"time"

	"lumos5g"
	"lumos5g/internal/features"
	"lumos5g/internal/geo"
)

// Prediction is one answer with its serving attribution — the
// transport-agnostic form of the /predict response body.
type Prediction struct {
	// Mbps is the predicted downlink throughput.
	Mbps float64
	// Class is the §5.2 throughput class of Mbps ("low"/"medium"/"high").
	Class string
	// Source names the serving tier's feature group ("L+M+C", "L", ...),
	// the chain's last resort, or map-cell / map-mean when the map itself
	// answered.
	Source string
	// Tier is the serving tier index; -1 when the map answered.
	Tier int
	// Degraded reports that the preferred tier did not serve.
	Degraded bool
	// Missing lists the unusable features that demoted the query.
	Missing []string
	// P10 and P90 bound the nominal 80% prediction band around Mbps
	// (the p50). Filled only by PredictInterval/PredictIntervalBatch;
	// always 0 <= P10 <= Mbps <= P90 there.
	P10 float64
	P90 float64
	// HasInterval reports a calibrated band; false means the triple is
	// degenerate (P10 = Mbps = P90) because the serving tier — or the
	// map itself — carries no conformal calibration.
	HasInterval bool
	// Walk is how long the model walk took (zero for map-only answers);
	// the serving layer feeds it to its latency instruments.
	Walk time.Duration
}

// Finite reports whether the prediction's value has a JSON encoding at
// all: encoding/json has no representation for NaN or ±Inf, and the
// chain's "never returns them" guarantee does not survive hostile model
// artifacts or degenerate maps, so the serving path checks instead of
// trusting.
func (p Prediction) Finite() bool {
	return !math.IsNaN(p.Mbps) && !math.IsInf(p.Mbps, 0) &&
		!math.IsNaN(p.P10) && !math.IsInf(p.P10, 0) &&
		!math.IsNaN(p.P90) && !math.IsInf(p.P90, 0)
}

// Engine is one immutable model generation: the published throughput
// map, the (possibly nil) fallback chain, and the map-wide prior that
// backs last-ditch answers. Immutability is the concurrency story —
// an Engine is safe to share without locks, and a hot swap is a pointer
// replacement in the layer above.
type Engine struct {
	tm    *lumos5g.ThroughputMap
	chain *lumos5g.FallbackChain // nil = map-only degraded serving
	prior float64
}

// New builds an engine generation for the map and (optionally nil)
// chain. The prior is the sample-weighted map-wide mean throughput.
func New(tm *lumos5g.ThroughputMap, chain *lumos5g.FallbackChain) (*Engine, error) {
	if tm == nil {
		return nil, fmt.Errorf("engine: nil throughput map")
	}
	return &Engine{tm: tm, chain: chain, prior: MapMean(tm)}, nil
}

// WithChain derives the next model generation: same map and prior, new
// chain (nil returns the engine to map-only serving).
func (e *Engine) WithChain(chain *lumos5g.FallbackChain) *Engine {
	return &Engine{tm: e.tm, chain: chain, prior: e.prior}
}

// Chain returns the serving fallback chain (nil when map-only).
func (e *Engine) Chain() *lumos5g.FallbackChain { return e.chain }

// Map returns the published throughput map.
func (e *Engine) Map() *lumos5g.ThroughputMap { return e.tm }

// MapPrior is the map-wide mean throughput backing last-ditch answers
// and single-predictor chain priors. Constant across WithChain swaps.
func (e *Engine) MapPrior() float64 { return e.prior }

// MapMean is the sample-weighted mean throughput across all map cells,
// floored at 1 Mbps so it stays a usable chain prior. Cells with
// non-finite means are skipped — a NaN check alone would still let +Inf
// through the sum and out as an Inf prior, which has no JSON encoding.
// Cells are summed in sorted order so the prior is bit-identical from
// one engine construction to the next (Go map order is randomised, and
// float addition is not associative).
func MapMean(tm *lumos5g.ThroughputMap) float64 {
	var sum float64
	var n int
	for _, c := range tm.SortedCells() {
		if c.N > 0 && !math.IsNaN(c.MeanMbps) && !math.IsInf(c.MeanMbps, 0) {
			sum += c.MeanMbps * float64(c.N)
			n += c.N
		}
	}
	if n == 0 || sum <= float64(n) || math.IsInf(sum, 0) {
		return 1
	}
	return sum / float64(n)
}

// query is the fallback-chain query for one prediction request. Absent
// optional sensors are NaN — the chain demotes the query to a tier that
// does not need them.
func query(px geo.Pixel, speed, bearing *float64) features.Vector {
	return features.Query(px.X, px.Y, orNaN(speed), orNaN(bearing))
}

func orNaN(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// MapOnly answers a prediction from the throughput map alone —
// model-less degraded serving (Fig 3c's whole premise).
func (e *Engine) MapOnly(px geo.Pixel) Prediction {
	p := Prediction{Tier: -1, Degraded: true}
	// A degenerate cell (non-finite mean) falls through to the map-wide
	// prior rather than putting an unencodable value on the wire.
	if cell := e.tm.Lookup(px.X, px.Y); cell != nil && !math.IsNaN(cell.MeanMbps) && !math.IsInf(cell.MeanMbps, 0) {
		p.Mbps, p.Source = cell.MeanMbps, "map-cell"
	} else {
		p.Mbps, p.Source = e.prior, "map-mean"
	}
	p.Class = lumos5g.ClassOf(p.Mbps).String()
	return p
}

// fromChain converts one fallback-chain answer.
func fromChain(p lumos5g.ChainPrediction, walk time.Duration) Prediction {
	return Prediction{
		Mbps:     p.Mbps,
		Class:    p.Class.String(),
		Source:   p.Source,
		Tier:     p.Tier,
		Degraded: p.Degraded,
		Missing:  p.Missing,
		Walk:     walk,
	}
}

// fromChainInterval converts one interval-carrying chain answer.
func fromChainInterval(p lumos5g.ChainPrediction, walk time.Duration) Prediction {
	out := fromChain(p, walk)
	out.P10, out.P90, out.HasInterval = p.P10, p.P90, p.HasInterval
	return out
}

// withDegenerateBand pins a point answer's band to the zero-width
// triple, keeping the p10 <= p50 <= p90 contract for answers that carry
// no calibration (map-only serving).
func withDegenerateBand(p Prediction) Prediction {
	p.P10, p.P90, p.HasInterval = p.Mbps, p.Mbps, false
	return p
}

// Predict answers one query: a chain walk when a model serves, the map
// itself otherwise. speed and bearing are optional sensors (nil =
// absent; the chain demotes the query instead of rejecting it).
func (e *Engine) Predict(px geo.Pixel, speed, bearing *float64) Prediction {
	if e.chain == nil {
		return e.MapOnly(px)
	}
	start := time.Now()
	p := e.chain.PredictVector(query(px, speed, bearing))
	return fromChain(p, time.Since(start))
}

// PredictInterval answers one query like Predict and carries the
// serving tier's p10/p90 band. Map-only answers get the degenerate
// zero-width band — the ordering contract holds on every path.
func (e *Engine) PredictInterval(px geo.Pixel, speed, bearing *float64) Prediction {
	if e.chain == nil {
		return withDegenerateBand(e.MapOnly(px))
	}
	start := time.Now()
	p := e.chain.PredictIntervalVector(query(px, speed, bearing))
	return fromChainInterval(p, time.Since(start))
}

// PredictBatch answers many queries in one model pass. speeds and
// bearings run parallel to pxs (nil entries = absent sensors); the
// slices may themselves be nil when no query carries that sensor.
func (e *Engine) PredictBatch(pxs []geo.Pixel, speeds, bearings []*float64) []Prediction {
	return e.predictBatch(pxs, speeds, bearings, false)
}

// PredictIntervalBatch answers many queries with p10/p90 bands
// attached; element i equals PredictInterval of query i exactly.
func (e *Engine) PredictIntervalBatch(pxs []geo.Pixel, speeds, bearings []*float64) []Prediction {
	return e.predictBatch(pxs, speeds, bearings, true)
}

func (e *Engine) predictBatch(pxs []geo.Pixel, speeds, bearings []*float64, withIval bool) []Prediction {
	out := make([]Prediction, len(pxs))
	if e.chain == nil {
		for i, px := range pxs {
			out[i] = e.MapOnly(px)
			if withIval {
				out[i] = withDegenerateBand(out[i])
			}
		}
		return out
	}
	vs := make([]features.Vector, len(pxs))
	for i, px := range pxs {
		var sp, br *float64
		if speeds != nil {
			sp = speeds[i]
		}
		if bearings != nil {
			br = bearings[i]
		}
		vs[i] = query(px, sp, br)
	}
	if withIval {
		for i, p := range e.chain.PredictIntervalBatch(vs) {
			out[i] = fromChainInterval(p, 0)
		}
	} else {
		for i, p := range e.chain.PredictBatch(vs) {
			out[i] = fromChain(p, 0)
		}
	}
	return out
}
