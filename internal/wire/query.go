package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"lumos5g/internal/dataset"
)

// Query decoding and validation for every serving hop. The replica and
// the fleet router both decode GET /predict with ParseQuery and POST
// /predict/batch with DecodeBatch, so a query one hop accepts the other
// accepts too, with the same status and message.

// MaxBatchQueries bounds one /predict/batch request at every hop (the
// request-size limits bound the bytes; this bounds the work). The
// router enforces it on the whole batch, so no sub-batch it scatters
// can exceed a replica's limit.
const MaxBatchQueries = 4096

// maxQueryBytes bounds the JSON size of one batch row: four fields at
// full float64 precision need about 110 bytes. Binary rows are smaller.
const maxQueryBytes = 256

// MaxBatchBytes caps one /predict/batch request body at every hop
// (replica and router): MaxBatchQueries full-size rows, so it is the
// row limit, not the byte cap, that turns an honest batch away.
const MaxBatchBytes = MaxBatchQueries * maxQueryBytes

// The query bounds are the storable ranges of the matching record
// fields — dataset's validity table, shared with the CSV loaders and
// the ingest gate — so an accepted query is a position the ingest gate
// would store.
var latRange, lonRange, speedRange, bearingRange = queryRanges()

func queryRanges() (lat, lon, speed, bearing [2]float64) {
	b := dataset.FieldBounds()
	return b["latitude"], b["longitude"], b["speed_kmh"], b["compass_deg"]
}

// Validate reports the first field of q that is non-finite or out of
// range, as a client-facing message. Absent speed or bearing is valid.
func (q Query) Validate() error {
	if err := checkRange(q.Lat, "lat", latRange); err != nil {
		return err
	}
	if err := checkRange(q.Lon, "lon", lonRange); err != nil {
		return err
	}
	if q.Speed != nil {
		if err := checkRange(*q.Speed, "speed (km/h)", speedRange); err != nil {
			return err
		}
	}
	if q.Bearing != nil {
		return checkRange(*q.Bearing, "bearing (degrees)", bearingRange)
	}
	return nil
}

func checkRange(v float64, name string, r [2]float64) error {
	if !(v >= r[0] && v <= r[1]) { // NaN fails both compares; ±Inf fails the bounds
		return fmt.Errorf("%s must be in [%g, %g]", name, r[0], r[1])
	}
	return nil
}

// QueryParams is one decoded GET /predict query string. When present,
// Query.Speed and Query.Bearing point into the struct's own storage, so
// a QueryParams in pooled or otherwise heap-stable memory decodes
// without allocating.
type QueryParams struct {
	Query
	// Intervals reports the interval negotiation (?intervals=1 or
	// ?intervals=true).
	Intervals bool

	speed, bearing float64
}

// ParseQuery decodes the raw query string of GET /predict into p and
// validates it: lat and lon are required, speed and bearing optional —
// but a present, malformed one is still an error.
func ParseQuery(rawQuery string, p *QueryParams) error {
	var err error
	if p.Lat, err = parseParam(queryValue(rawQuery, "lat"), "lat"); err != nil {
		return err
	}
	if p.Lon, err = parseParam(queryValue(rawQuery, "lon"), "lon"); err != nil {
		return err
	}
	p.Speed, p.Bearing = nil, nil
	if raw := queryValue(rawQuery, "speed"); raw != "" {
		if p.speed, err = parseParam(raw, "speed (km/h)"); err != nil {
			return err
		}
		p.Speed = &p.speed
	}
	if raw := queryValue(rawQuery, "bearing"); raw != "" {
		if p.bearing, err = parseParam(raw, "bearing (degrees)"); err != nil {
			return err
		}
		p.Bearing = &p.bearing
	}
	p.Intervals = WantIntervals(rawQuery)
	return p.Validate()
}

// WantIntervals reports whether the raw query negotiated the interval
// wire form (?intervals=1 or ?intervals=true).
func WantIntervals(rawQuery string) bool {
	v := queryValue(rawQuery, "intervals")
	return v == "1" || v == "true"
}

// parseParam parses one parameter value as a float; an empty value is
// a missing parameter.
func parseParam(raw, name string) (float64, error) {
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a number", name)
	}
	return v, nil
}

// queryValue scans a raw query string for key and returns its first
// value — what url.Values.Get would return, minus the per-request
// url.Values map (numeric parameters come back as substrings, so the
// hot /predict path parses its query without allocating).
func queryValue(rawQuery, key string) string {
	for len(rawQuery) > 0 {
		pair := rawQuery
		if i := strings.IndexByte(rawQuery, '&'); i >= 0 {
			pair, rawQuery = rawQuery[:i], rawQuery[i+1:]
		} else {
			rawQuery = ""
		}
		eq := strings.IndexByte(pair, '=')
		if eq < 0 || pair[:eq] != key {
			continue
		}
		v := pair[eq+1:]
		if strings.ContainsAny(v, "%+") {
			u, err := url.QueryUnescape(v)
			if err != nil {
				return "" // url.ParseQuery drops malformed pairs too
			}
			return u
		}
		return v
	}
	return ""
}

// DecodeBatch reads a POST /predict/batch body in the format
// contentType names — the binary request frame for ContentType, a JSON
// array of {lat, lon[, speed][, bearing]} otherwise — and validates
// every row. Every error is the client's: an undecodable body, an empty
// batch, one over MaxBatchQueries, or an invalid row.
func DecodeBatch(contentType string, body io.Reader) ([]Query, error) {
	var qs []Query
	if contentType == ContentType {
		b, err := io.ReadAll(body)
		if err != nil {
			return nil, errors.New("unreadable request body")
		}
		if qs, err = DecodeQueries(b, MaxBatchQueries); err != nil {
			return nil, err
		}
	} else if err := json.NewDecoder(body).Decode(&qs); err != nil {
		return nil, errors.New("body must be a JSON array of {lat, lon[, speed][, bearing]} queries")
	}
	if len(qs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(qs) > MaxBatchQueries {
		return nil, fmt.Errorf("batch of %d exceeds the %d-query limit", len(qs), MaxBatchQueries)
	}
	for i := range qs {
		if err := qs[i].Validate(); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return qs, nil
}
