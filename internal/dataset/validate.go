package dataset

import (
	"fmt"
	"math"
)

// Per-field value validation shared by the CSV loaders and the live
// ingest gate (internal/ingest): one table of physical ranges, so a row
// the lenient loader quarantines is exactly a sample the ingest endpoint
// rejects, with the same reason label. The serving query decoder
// (internal/wire) takes its lat/lon/speed/bearing bounds from the same
// table. The bounds are deliberately
// physical-plausibility bounds (can this number come from the sensor at
// all?), not model-quality bounds — the stricter serving-time ranges in
// internal/features decide whether a value is *usable*, this table
// decides whether it is *storable*.

// FieldError reports one field whose value is outside its physical
// range. Field is a stable identifier from the CSV schema (also the
// closed reason-label set of lumos_ingest_rejected_total).
type FieldError struct {
	Field string
	Value float64
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("%s: value %g outside physical range", e.Field, e.Value)
}

// fieldBound is one validated record field. Optional fields may be NaN
// (an absent sensor); required fields must be finite and in range.
type fieldBound struct {
	field    string
	lo, hi   float64
	required bool
}

// recordBounds is the per-field validity table. Latitude/longitude and
// the throughput label must exist for the record to mean anything; every
// other sensor may be absent (NaN) but must be physically plausible when
// present. Signal bounds follow the 3GPP reporting ranges the dataset
// schema mirrors, except ss_sinr, whose reported value is deliberately
// unclamped in the radio model (and on real modems often exceeds the
// nominal reporting range), so it gets a generous bound.
var recordBounds = []fieldBound{
	{"latitude", -90, 90, true},
	{"longitude", -180, 180, true},
	{"throughput_mbps", 0, 100e3, true},
	{"gps_accuracy", 0, 10e3, false},
	{"speed_kmh", 0, 500, false},
	{"compass_deg", -360, 360, false},
	{"compass_acc", 0, 360, false},
	{"lte_rsrp", -156, -31, false},
	{"lte_rsrq", -43, 20, false},
	{"lte_rssi", -120, 0, false},
	{"ss_rsrp", -156, -31, false},
	{"ss_rsrq", -43, 20, false},
	{"ss_sinr", -100, 100, false},
	{"pixel_x", 0, 1 << 26, false},
	{"pixel_y", 0, 1 << 26, false},
}

// FieldBounds returns the validated field names with their [lo, hi]
// physical ranges — exported for the serving query bounds
// (internal/wire) and so tests can cross-check this table against
// the internal/features column ranges without an import cycle.
func FieldBounds() map[string][2]float64 {
	out := make(map[string][2]float64, len(recordBounds))
	for _, b := range recordBounds {
		out[b.field] = [2]float64{b.lo, b.hi}
	}
	return out
}

// fieldValue extracts the value of one validated field from r.
func fieldValue(r *Record, field string) float64 {
	switch field {
	case "latitude":
		return r.Latitude
	case "longitude":
		return r.Longitude
	case "throughput_mbps":
		return r.ThroughputMbps
	case "gps_accuracy":
		return r.GPSAccuracy
	case "speed_kmh":
		return r.SpeedKmh
	case "compass_deg":
		return r.CompassDeg
	case "compass_acc":
		return r.CompassAcc
	case "lte_rsrp":
		return r.LteRsrp
	case "lte_rsrq":
		return r.LteRsrq
	case "lte_rssi":
		return r.LteRssi
	case "ss_rsrp":
		return r.SSRsrp
	case "ss_rsrq":
		return r.SSRsrq
	case "ss_sinr":
		return r.SSSinr
	case "pixel_x":
		return float64(r.PixelX)
	case "pixel_y":
		return float64(r.PixelY)
	}
	return math.NaN()
}

// ValidateRecord checks every field of r against its physical range and
// returns a *FieldError naming the first violation, or nil. NaN is legal
// for optional sensors (an absent reading) and fatal for required ones;
// ±Inf is never legal. Both CSV loaders apply this check to every parsed
// row — the strict loader fails the load, the lenient one quarantines
// the row — and the ingest gate applies it to every live sample, so the
// three paths reject identically.
func ValidateRecord(r *Record) error {
	for i := range recordBounds {
		b := &recordBounds[i]
		v := fieldValue(r, b.field)
		if math.IsNaN(v) {
			if b.required {
				return &FieldError{Field: b.field, Value: v}
			}
			continue
		}
		if math.IsInf(v, 0) || v < b.lo || v > b.hi {
			return &FieldError{Field: b.field, Value: v}
		}
	}
	return nil
}
