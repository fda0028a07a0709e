package lumos5g

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"lumos5g/internal/features"
	"lumos5g/internal/ml"
	"lumos5g/internal/ml/hm"
)

// FallbackChain is a degraded-mode predictor: an ordered list of trained
// Predictors over progressively smaller feature groups, closed by a
// harmonic-mean / prior last resort that needs no features at all.
//
// The paper's feature groups are composable by design (Table 6) so a
// deployment can mix L/M/T/C per what its sensors provide — but a live
// UE loses sensors at runtime too: the compass jams, the modem stops
// reporting SS-RSRP, the panel survey does not cover the current block.
// The chain turns those losses into tier demotions instead of errors:
// each query is served by the first tier whose feature columns are all
// present, finite, and inside their physical ranges (the features
// column table), and the response records which tier served it.
//
// A query is a FeatureVector: one fixed slot per feature column, NaN
// where a sensor is absent. Prediction never fails for any vector: the
// last resort forecasts from the query's own past-throughput
// features when usable (the ABR harmonic-mean estimator the paper
// benchmarks as HM) and otherwise from the training-set prior.
//
// A FallbackChain is safe for concurrent use by multiple goroutines.
type FallbackChain struct {
	tiers []*Predictor
	prior float64
	// hmOff holds conformal offsets for the harmonic-mean / prior last
	// resort (residuals of truth vs the prior), so even featureless
	// answers carry a calibrated band. nil serves degenerate intervals.
	hmOff *ml.ConformalOffsets
	// served[i] counts queries answered by tier i; the last slot is the
	// harmonic-mean / prior last resort.
	served []atomic.Uint64
}

// LastResortGroup is the Source label of chain predictions served by the
// featureless last resort.
const LastResortGroup = "HM"

// ChainPrediction is one FallbackChain answer with its tier attribution.
type ChainPrediction struct {
	// Mbps is the predicted downlink throughput.
	Mbps float64
	// Class is the §5.2 throughput class of Mbps.
	Class Class
	// Tier is the index of the serving tier; len(chain.Tiers()) means
	// the last resort served.
	Tier int
	// Source names the serving tier's feature group ("L+M+C", "L", ...)
	// or LastResortGroup.
	Source string
	// Degraded reports that at least the first tier was skipped.
	Degraded bool
	// Missing lists the first tier's unusable feature columns when the
	// prediction is degraded (why the preferred model could not run).
	Missing []string
	// P10 and P90 bound the nominal 80% prediction band around Mbps
	// (which is the p50 of the triple). They are filled only by
	// the PredictInterval* methods and always satisfy
	// P10 <= Mbps <= P90; both are floored at 0 like Mbps itself.
	P10 float64
	P90 float64
	// HasInterval reports that the serving tier carried conformal
	// calibration; when false the band is the degenerate P10 = Mbps =
	// P90 ("no uncertainty estimate"), never an invented one.
	HasInterval bool
}

// DefaultFallbackGroups is the recommended tier order: the full
// Location+Mobility+Connection model, then Location+Mobility once the
// modem stops reporting, then bare Location once even kinematics are
// gone. The chain's built-in last resort covers the empty group.
var DefaultFallbackGroups = []FeatureGroup{GroupLMC, GroupLM, GroupL}

// NewFallbackChain assembles a chain from trained predictors, ordered
// most- to least-demanding. priorMbps is the last-resort forecast used
// when a query carries no usable past-throughput history; it must be a
// positive finite throughput (typically the training set's harmonic
// mean). A chain with zero tiers is legal and serves everything from the
// last resort.
func NewFallbackChain(priorMbps float64, tiers ...*Predictor) (*FallbackChain, error) {
	if math.IsNaN(priorMbps) || math.IsInf(priorMbps, 0) || priorMbps <= 0 {
		return nil, fmt.Errorf("lumos5g: fallback prior must be a positive throughput, got %v", priorMbps)
	}
	for i, p := range tiers {
		if p == nil {
			return nil, fmt.Errorf("lumos5g: fallback tier %d is nil", i)
		}
	}
	c := &FallbackChain{
		tiers: append([]*Predictor(nil), tiers...),
		prior: priorMbps,
	}
	c.served = make([]atomic.Uint64, len(c.tiers)+1)
	return c, nil
}

// TrainFallbackChain trains one predictor per feature group (in the
// given order) on d and closes the chain with the dataset's harmonic-mean
// throughput as the prior. Groups that yield no usable rows on d (e.g. a
// tower group on an unsurveyed area) are skipped rather than failing the
// whole chain — the result records only the tiers that exist.
func TrainFallbackChain(d *Dataset, groups []FeatureGroup, m Model, sc Scale) (*FallbackChain, error) {
	if len(groups) == 0 {
		groups = DefaultFallbackGroups
	}
	var tiers []*Predictor
	for _, g := range groups {
		p, err := Train(d, g, m, sc)
		if err != nil {
			if errors.Is(err, ErrNoUsableRows) {
				continue
			}
			return nil, fmt.Errorf("lumos5g: train fallback tier %s: %w", g, err)
		}
		tiers = append(tiers, p)
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return nil, fmt.Errorf("lumos5g: cannot derive fallback prior from dataset: %v", err)
	}
	return NewFallbackChain(prior, tiers...)
}

// TrainCalibratedFallbackChain is TrainFallbackChain with uncertainty:
// every tier is trained via TrainCalibrated (fit on the seeded train
// split, conformal offsets from the holdout), and the last resort gets
// offsets from the spread of the dataset's throughputs around the
// harmonic-mean prior, so PredictInterval serves a calibrated band from
// every tier including HM.
func TrainCalibratedFallbackChain(d *Dataset, groups []FeatureGroup, m Model, sc Scale) (*FallbackChain, error) {
	if len(groups) == 0 {
		groups = DefaultFallbackGroups
	}
	var tiers []*Predictor
	for _, g := range groups {
		p, err := TrainCalibrated(d, g, m, sc)
		if err != nil {
			if errors.Is(err, ErrNoUsableRows) {
				continue
			}
			return nil, fmt.Errorf("lumos5g: train calibrated fallback tier %s: %w", g, err)
		}
		tiers = append(tiers, p)
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return nil, fmt.Errorf("lumos5g: cannot derive fallback prior from dataset: %v", err)
	}
	c, err := NewFallbackChain(prior, tiers...)
	if err != nil {
		return nil, err
	}
	if tput := d.Throughputs(); len(tput) >= ml.MinCalibration {
		priors := make([]float64, len(tput))
		for i := range priors {
			priors[i] = prior
		}
		off, err := ml.CalibrateConformal(priors, tput)
		if err == nil {
			c.hmOff = &off
		}
	}
	return c, nil
}

// SetLastResortOffsets attaches conformal offsets to the chain's
// harmonic-mean / prior last resort (the artifact-load path).
func (c *FallbackChain) SetLastResortOffsets(o ml.ConformalOffsets) error {
	if !o.Valid() {
		return fmt.Errorf("lumos5g: non-finite last-resort offsets %+v", o)
	}
	c.hmOff = &o
	return nil
}

// LastResortOffsets returns the last resort's conformal offsets and
// whether any exist.
func (c *FallbackChain) LastResortOffsets() (ml.ConformalOffsets, bool) {
	if c.hmOff == nil {
		return ml.ConformalOffsets{}, false
	}
	return *c.hmOff, true
}

// HarmonicMeanThroughput is the dataset-wide harmonic-mean throughput —
// the same prior TrainFallbackChain bakes into a chain's last resort.
// Returns 0 when the dataset cannot support one (empty, or all-zero).
func HarmonicMeanThroughput(d *Dataset) float64 {
	if d == nil || d.Len() == 0 {
		return 0
	}
	prior, err := hm.New(d.Len()).Predict(d.Throughputs())
	if err != nil || !(prior > 0) {
		return 0
	}
	return prior
}

// ChainFromPredictor wraps a single trained predictor into a one-tier
// chain — the adapter that lets legacy single-model artifacts serve
// through the degraded-mode path.
func ChainFromPredictor(p *Predictor, priorMbps float64) (*FallbackChain, error) {
	if p == nil {
		return nil, fmt.Errorf("lumos5g: nil predictor")
	}
	return NewFallbackChain(priorMbps, p)
}

// Predict serves one query given by feature column name (see
// Predictor.FeatureNames); names that are not columns are ignored. It
// is PredictVector on features.FromNames(q).
func (c *FallbackChain) Predict(q map[string]float64) ChainPrediction {
	return c.PredictVector(features.FromNames(q))
}

// PredictInterval is PredictIntervalVector on features.FromNames(q).
func (c *FallbackChain) PredictInterval(q map[string]float64) ChainPrediction {
	return c.PredictIntervalVector(features.FromNames(q))
}

// PredictVector serves one query. Columns that are absent (NaN),
// non-finite or out of range are treated as missing sensors and demote
// the query to the first tier that is fully satisfied. PredictVector
// never fails: a query with no usable column is served by the last
// resort.
func (c *FallbackChain) PredictVector(v FeatureVector) ChainPrediction {
	return c.predict(&v, false)
}

// PredictIntervalVector serves one query exactly like PredictVector —
// same tier walk, same Mbps, same served-counter accounting — and
// additionally fills the P10/P90 band from the serving tier's conformal
// calibration (degenerate when the tier is uncalibrated). The triple
// always satisfies P10 <= Mbps <= P90.
func (c *FallbackChain) PredictIntervalVector(v FeatureVector) ChainPrediction {
	return c.predict(&v, true)
}

// fillInterval attaches the serving tier's band to an answer whose Mbps
// is already floored at 0.
func fillInterval(cp *ChainPrediction, off *ml.ConformalOffsets) {
	if off == nil {
		cp.P10, cp.P90 = cp.Mbps, cp.Mbps
		return
	}
	iv := off.Interval(cp.Mbps)
	cp.P10, cp.P90 = iv.P10, iv.P90
	if cp.P10 < 0 {
		cp.P10 = 0
	}
	cp.HasInterval = true
}

func (c *FallbackChain) predict(v *features.Vector, withIval bool) ChainPrediction {
	for i, p := range c.tiers {
		if !v.Complete(p.cols) {
			continue
		}
		mbps := p.Predict(v.Row(p.cols))
		if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
			// A tier that produces garbage is treated like a missing
			// sensor: demote rather than propagate.
			continue
		}
		if mbps < 0 {
			mbps = 0
		}
		return c.answer(i, mbps, v, withIval)
	}
	return c.answer(len(c.tiers), c.lastResort(v), v, withIval)
}

// lastResort is the featureless forecast: the query's own throughput
// history when usable, otherwise the training prior. Both are the HM
// estimator's domain.
func (c *FallbackChain) lastResort(v *features.Vector) float64 {
	switch {
	case v.Usable(features.PastTputHmean):
		return v[features.PastTputHmean]
	case v.Usable(features.PastTputLast):
		return v[features.PastTputLast]
	}
	return c.prior
}

// answer records and returns the answer served by tier (len(c.tiers)
// is the last resort). A degraded answer lists the first tier's
// unusable columns of v.
func (c *FallbackChain) answer(tier int, mbps float64, v *features.Vector, withIval bool) ChainPrediction {
	c.served[tier].Add(1)
	cp := ChainPrediction{
		Mbps:     mbps,
		Class:    ClassOf(mbps),
		Tier:     tier,
		Source:   LastResortGroup,
		Degraded: tier > 0,
	}
	off := c.hmOff
	if tier < len(c.tiers) {
		cp.Source = c.tiers[tier].group.String()
		off = c.tiers[tier].ival
	}
	if cp.Degraded {
		cp.Missing = v.Missing(c.tiers[0].cols)
	}
	if withIval {
		fillInterval(&cp, off)
	}
	return cp
}

// PredictBatch serves many queries at once, answering exactly as if
// PredictVector were called on each in order — same tier attribution,
// same served-counter totals — but batching each tier's satisfied
// queries through the model's vectorised fast path. Queries a tier
// demotes (missing sensors, or a non-finite tier prediction) stay
// pending for the next tier, mirroring the per-query demotion loop.
func (c *FallbackChain) PredictBatch(vs []FeatureVector) []ChainPrediction {
	return c.predictBatch(vs, false)
}

// PredictIntervalBatch serves many queries with P10/P90 bands attached.
// Element i equals PredictIntervalVector(vs[i]) exactly — same tier
// walk, same floats, same served-counter totals.
func (c *FallbackChain) PredictIntervalBatch(vs []FeatureVector) []ChainPrediction {
	return c.predictBatch(vs, true)
}

func (c *FallbackChain) predictBatch(vs []features.Vector, withIval bool) []ChainPrediction {
	out := make([]ChainPrediction, len(vs))
	pending := make([]int, len(vs))
	for i := range pending {
		pending[i] = i
	}
	var ready []int
	for ti, p := range c.tiers {
		if len(pending) == 0 {
			break
		}
		ready = ready[:0]
		next := pending[:0]
		for _, qi := range pending {
			if vs[qi].Complete(p.cols) {
				ready = append(ready, qi)
			} else {
				next = append(next, qi)
			}
		}
		if len(ready) > 0 {
			preds := ml.PredictAll(p.reg, features.Rows(vs, ready, p.cols))
			for k, qi := range ready {
				mbps := preds[k]
				if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
					next = append(next, qi)
					continue
				}
				if mbps < 0 {
					mbps = 0
				}
				out[qi] = c.answer(ti, mbps, &vs[qi], withIval)
			}
		}
		pending = next
	}
	for _, qi := range pending {
		out[qi] = c.answer(len(c.tiers), c.lastResort(&vs[qi]), &vs[qi], withIval)
	}
	return out
}

// Tiers returns the chain's predictors in serving order.
func (c *FallbackChain) Tiers() []*Predictor {
	return append([]*Predictor(nil), c.tiers...)
}

// Prior returns the last-resort throughput prior in Mbps.
func (c *FallbackChain) Prior() float64 { return c.prior }

// ServedCounts returns how many queries each tier has answered since the
// chain was built; the final element counts the last resort.
func (c *FallbackChain) ServedCounts() []uint64 {
	out := make([]uint64, len(c.served))
	for i := range c.served {
		out[i] = c.served[i].Load()
	}
	return out
}

// TierNames returns the serving-order tier labels, ending with the last
// resort — the /healthz wire form of the chain's shape.
func (c *FallbackChain) TierNames() []string {
	out := make([]string, 0, len(c.tiers)+1)
	for _, p := range c.tiers {
		out = append(out, p.group.String())
	}
	return append(out, LastResortGroup)
}

// String renders the chain shape, e.g. "L+M+C → L+M → L → HM".
func (c *FallbackChain) String() string {
	return strings.Join(c.TierNames(), " → ")
}
