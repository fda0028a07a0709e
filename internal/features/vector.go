package features

import (
	"math"
	"slices"

	"lumos5g/internal/dataset"
	"lumos5g/internal/radio"
)

// Column is one fixed slot of the feature vector. The columns table is
// the single definition of every column: its slot, its name, and the
// range inside which a value is usable.
type Column int

// The feature columns, in slot order.
const (
	PixelX Column = iota
	PixelY
	MovingSpeed
	CompassSin
	CompassCos
	PanelDist
	ThetaPSin
	ThetaPCos
	ThetaMSin
	ThetaMCos
	PastTputLast
	PastTputHmean
	RadioType
	LteRsrp
	LteRsrq
	LteRssi
	SSRsrp
	SSRsrq
	SSSinr
	HorizontalHO
	VerticalHO
	// NumColumns is the length of a Vector.
	NumColumns
)

// FeatureRange is the plausible value interval for one feature column.
// The fallback predictor uses these to decide whether a query value is
// trustworthy: a reading outside its physical range is treated exactly
// like a missing sensor (§2.3's UE-side serving path must survive both).
type FeatureRange struct {
	Lo, Hi float64
}

// Contains reports whether v is a finite value inside the range.
func (fr FeatureRange) Contains(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= fr.Lo && v <= fr.Hi
}

// columns names every slot and bounds its usable values. Bounds follow
// the sensor specs the dataset schema mirrors: Web-Mercator pixel
// coordinates at DefaultZoom, 3GPP signal reporting ranges (widened to
// include the imputation sentinels), and generous kinematic caps.
var columns = [NumColumns]struct {
	name  string
	valid FeatureRange
}{
	PixelX:      {"pixel_x", FeatureRange{0, 1 << 26}}, // zoom 17 tile space: 2^(17+8) pixels
	PixelY:      {"pixel_y", FeatureRange{0, 1 << 26}},
	MovingSpeed: {"moving_speed", FeatureRange{0, 500}},
	CompassSin:  {"compass_sin", FeatureRange{-1, 1}},
	CompassCos:  {"compass_cos", FeatureRange{-1, 1}},
	PanelDist:   {"panel_dist", FeatureRange{0, 100e3}},
	ThetaPSin:   {"theta_p_sin", FeatureRange{-1, 1}},
	ThetaPCos:   {"theta_p_cos", FeatureRange{-1, 1}},
	ThetaMSin:   {"theta_m_sin", FeatureRange{-1, 1}},
	ThetaMCos:   {"theta_m_cos", FeatureRange{-1, 1}},
	// Connection features. Signal floors sit at the imputation
	// sentinels; ceilings at the top of the 3GPP reporting ranges.
	PastTputLast:  {"past_tput_last", FeatureRange{0, 100e3}},
	PastTputHmean: {"past_tput_hmean", FeatureRange{0, 100e3}},
	RadioType:     {"radio_type", FeatureRange{0, 1}},
	LteRsrp:       {"lte_rsrp", FeatureRange{-156, -31}},
	LteRsrq:       {"lte_rsrq", FeatureRange{-43, 20}},
	LteRssi:       {"lte_rssi", FeatureRange{-120, 0}},
	SSRsrp:        {"ss_rsrp", FeatureRange{SentinelSSRsrp, -31}},
	SSRsrq:        {"ss_rsrq", FeatureRange{SentinelSSRsrq, 20}},
	SSSinr:        {"ss_sinr", FeatureRange{SentinelSSSinr, 40}},
	HorizontalHO:  {"horizontal_ho", FeatureRange{0, 1}},
	VerticalHO:    {"vertical_ho", FeatureRange{0, 1}},
}

// String returns the column's name, the form stored in model artifacts
// and reported in a degraded answer's missing list.
func (c Column) String() string { return columns[c].name }

// Range returns the interval inside which the column's values are
// usable.
func (c Column) Range() FeatureRange { return columns[c].valid }

// The primary groups' columns; the composed groups concatenate them.
var (
	colsL = []Column{PixelX, PixelY}
	colsM = []Column{MovingSpeed, CompassSin, CompassCos}
	colsT = []Column{PanelDist, ThetaPSin, ThetaPCos, ThetaMSin, ThetaMCos}
	colsC = []Column{PastTputLast, PastTputHmean, RadioType, LteRsrp, LteRsrq, LteRssi,
		SSRsrp, SSRsrq, SSSinr, HorizontalHO, VerticalHO}
	colsSpeed = []Column{MovingSpeed}
)

// groupColumns lists each group's columns in model input order. T+M
// takes speed alone: direction is already encoded by θ_m (Table 6).
var groupColumns = [...][]Column{
	GroupL:   colsL,
	GroupM:   colsM,
	GroupT:   colsT,
	GroupC:   colsC,
	GroupLM:  slices.Concat(colsL, colsM),
	GroupTM:  slices.Concat(colsSpeed, colsT),
	GroupLMC: slices.Concat(colsL, colsM, colsC),
	GroupTMC: slices.Concat(colsSpeed, colsT, colsC),
}

// Columns returns the group's columns in model input order. The slice
// is shared; callers must not modify it.
func (g Group) Columns() []Column {
	if g < 0 || int(g) >= len(groupColumns) {
		return nil
	}
	return groupColumns[g]
}

// GroupNames returns the feature column names Build produces for g.
func GroupNames(g Group) []string {
	var names []string
	for _, c := range g.Columns() {
		names = append(names, c.String())
	}
	return names
}

// Vector is one feature vector in fixed slots, indexed by Column. NaN
// marks an absent value; absent, non-finite and out-of-range values are
// all unusable.
type Vector [NumColumns]float64

// absent is the vector with every column absent.
var absent = func() (v Vector) {
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}()

// degToRad converts compass degrees to radians for the sin/cos pairs.
const degToRad = math.Pi / 180

// Query is the serving feature vector: a pixel location plus the UE's
// speed (km/h) and compass bearing (degrees). A NaN speed or bearing is
// an absent sensor. Training rows carry the same values (Build fills
// location and mobility through Query), so a query is scored by exactly
// the inputs its tier was fitted on.
func Query(pixelX, pixelY int, speedKmh, bearingDeg float64) Vector {
	v := absent
	v[PixelX], v[PixelY] = float64(pixelX), float64(pixelY)
	v[MovingSpeed] = speedKmh
	v[CompassSin] = math.Sin(bearingDeg * degToRad)
	v[CompassCos] = math.Cos(bearingDeg * degToRad)
	return v
}

// FromNames builds a vector from column names to values. Names that are
// not columns are ignored; columns without a name are absent.
func FromNames(q map[string]float64) Vector {
	v := absent
	for c := range v {
		if x, ok := q[columns[c].name]; ok {
			v[c] = x
		}
	}
	return v
}

// fill vectorises one record with its derived throughput history.
// Missing 5G signal fields take their sentinels; tower columns stay NaN
// where the area has no panel survey.
func fill(r *dataset.Record, past pastInfo) Vector {
	v := Query(r.PixelX, r.PixelY, r.SpeedKmh, r.CompassDeg)
	v[PanelDist] = r.PanelDist
	v[ThetaPSin], v[ThetaPCos] = math.Sin(r.ThetaP*degToRad), math.Cos(r.ThetaP*degToRad)
	v[ThetaMSin], v[ThetaMCos] = math.Sin(r.ThetaM*degToRad), math.Cos(r.ThetaM*degToRad)
	v[PastTputLast], v[PastTputHmean] = past.last, past.hmean
	v[RadioType] = 0
	if r.Radio == radio.RadioNR {
		v[RadioType] = 1
	}
	v[LteRsrp], v[LteRsrq], v[LteRssi] = r.LteRsrp, r.LteRsrq, r.LteRssi
	v[SSRsrp] = orSentinel(r.SSRsrp, SentinelSSRsrp)
	v[SSRsrq] = orSentinel(r.SSRsrq, SentinelSSRsrq)
	v[SSSinr] = orSentinel(r.SSSinr, SentinelSSSinr)
	v[HorizontalHO], v[VerticalHO] = flag(r.HorizontalHO), flag(r.VerticalHO)
	return v
}

func orSentinel(v, sentinel float64) float64 {
	if math.IsNaN(v) {
		return sentinel
	}
	return v
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Usable reports whether column c holds a value a model can be fed.
func (v *Vector) Usable(c Column) bool { return columns[c].valid.Contains(v[c]) }

// Complete reports whether every one of cols is usable.
func (v *Vector) Complete(cols []Column) bool {
	for _, c := range cols {
		if !v.Usable(c) {
			return false
		}
	}
	return true
}

// Missing returns the names of the unusable columns among cols, nil
// when all are usable. The slice is sized exactly: serving caches keep
// it for the life of an entry.
func (v *Vector) Missing(cols []Column) []string {
	n := 0
	for _, c := range cols {
		if !v.Usable(c) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, c := range cols {
		if !v.Usable(c) {
			out = append(out, c.String())
		}
	}
	return out
}

// Row gathers cols into a new model input row.
func (v *Vector) Row(cols []Column) []float64 {
	row := make([]float64, len(cols))
	for j, c := range cols {
		row[j] = v[c]
	}
	return row
}

// Rows gathers cols of vs[i] for every i in idx into one contiguous
// row-major matrix.
func Rows(vs []Vector, idx []int, cols []Column) [][]float64 {
	w := len(cols)
	flat := make([]float64, len(idx)*w)
	X := make([][]float64, len(idx))
	for k, i := range idx {
		row := flat[k*w : (k+1)*w : (k+1)*w]
		for j, c := range cols {
			row[j] = vs[i][c]
		}
		X[k] = row
	}
	return X
}
