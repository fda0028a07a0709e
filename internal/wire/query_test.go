package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"lumos5g/internal/dataset"
)

// TestQueryBoundsFromDatasetTable: the four query bounds are the
// dataset validity table's, edges inclusive, and a step past either
// edge (or a non-finite value) is rejected.
func TestQueryBoundsFromDatasetTable(t *testing.T) {
	b := dataset.FieldBounds()
	fields := []struct {
		field string
		set   func(q *Query, v float64)
	}{
		{"latitude", func(q *Query, v float64) { q.Lat = v }},
		{"longitude", func(q *Query, v float64) { q.Lon = v }},
		{"speed_kmh", func(q *Query, v float64) { q.Speed = &v }},
		{"compass_deg", func(q *Query, v float64) { q.Bearing = &v }},
	}
	for _, fd := range fields {
		r, ok := b[fd.field]
		if !ok || !(r[0] < r[1]) {
			t.Fatalf("%s: dataset bound %v", fd.field, r)
		}
		for _, v := range []float64{r[0], r[1], (r[0] + r[1]) / 2} {
			q := Query{}
			fd.set(&q, v)
			if err := q.Validate(); err != nil {
				t.Errorf("%s=%g rejected: %v", fd.field, v, err)
			}
		}
		for _, v := range []float64{math.Nextafter(r[0], math.Inf(-1)), math.Nextafter(r[1], math.Inf(1)),
			math.NaN(), math.Inf(1), math.Inf(-1)} {
			q := Query{}
			fd.set(&q, v)
			if q.Validate() == nil {
				t.Errorf("%s=%g accepted", fd.field, v)
			}
		}
	}
}

func TestParseQuery(t *testing.T) {
	cases := []struct {
		raw       string
		ok        bool
		want      Query
		intervals bool
	}{
		{"lat=44.8&lon=-93.2", true, Query{Lat: 44.8, Lon: -93.2}, false},
		{"lat=44.8&lon=-93.2&speed=4.5&bearing=10&intervals=1", true, Query{Lat: 44.8, Lon: -93.2, Speed: f(4.5), Bearing: f(10)}, true},
		{"bearing=-360&speed=500&lon=180&lat=-90&intervals=true", true, Query{Lat: -90, Lon: 180, Speed: f(500), Bearing: f(-360)}, true},
		{"lat=%34%34.8&lon=%2D93.2", true, Query{Lat: 44.8, Lon: -93.2}, false},
		{"lat=1&lon=2&speed=&bearing=", true, Query{Lat: 1, Lon: 2}, false},    // empty optional = absent
		{"lat=1&lon=2&speed=%zz", true, Query{Lat: 1, Lon: 2}, false},          // malformed escape = absent
		{"lat=1&lat=99&lon=2&intervals=0", true, Query{Lat: 1, Lon: 2}, false}, // first value wins
		{"lon=2", false, Query{}, false},                      // missing lat
		{"lat=1", false, Query{}, false},                      // missing lon
		{"lat=%zz&lon=2", false, Query{}, false},              // malformed required
		{"lat=abc&lon=2", false, Query{}, false},              // not a number
		{"lat=1&lon=2&speed=fast", false, Query{}, false},     // malformed optional
		{"lat=1&lon=2&bearing=1e999", false, Query{}, false},  // overflows float64
		{"lat=NaN&lon=2", false, Query{}, false},              // non-finite
		{"lat=1&lon=%2BInf", false, Query{}, false},           // escaped +Inf
		{"lat=1+&lon=2", false, Query{}, false},               // '+' is a space
		{"lat=90.5&lon=2", false, Query{}, false},             // out of range
		{"lat=1&lon=2&speed=-1", false, Query{}, false},       // out of range
		{"lat=1&lon=2&bearing=360.01", false, Query{}, false}, // out of range
	}
	for _, tc := range cases {
		var p QueryParams
		err := ParseQuery(tc.raw, &p)
		if (err == nil) != tc.ok {
			t.Fatalf("%q: err = %v, want ok=%v", tc.raw, err, tc.ok)
		}
		if !tc.ok {
			continue
		}
		if p.Lat != tc.want.Lat || p.Lon != tc.want.Lon || !sameOpt(p.Speed, tc.want.Speed) ||
			!sameOpt(p.Bearing, tc.want.Bearing) || p.Intervals != tc.intervals {
			t.Fatalf("%q: parsed %+v (intervals=%v), want %+v (intervals=%v)", tc.raw, p.Query, p.Intervals, tc.want, tc.intervals)
		}
	}

	// Reused storage: a second parse must not inherit the first one's
	// optionals.
	var p QueryParams
	if err := ParseQuery("lat=1&lon=2&speed=3&bearing=4&intervals=1", &p); err != nil {
		t.Fatal(err)
	}
	if err := ParseQuery("lat=1&lon=2", &p); err != nil {
		t.Fatal(err)
	}
	if p.Speed != nil || p.Bearing != nil || p.Intervals {
		t.Fatalf("reused QueryParams kept stale fields: %+v", p)
	}
}

func sameOpt(a, b *float64) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}

func TestParseQueryZeroAllocs(t *testing.T) {
	p := new(QueryParams)
	raw := "lat=44.8838&lon=-93.21&speed=4.5&bearing=10&intervals=1"
	if n := testing.AllocsPerRun(100, func() {
		if err := ParseQuery(raw, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ParseQuery allocates %v times per call, want 0", n)
	}
}

func TestDecodeBatch(t *testing.T) {
	qs := sampleQueries()
	frame := AppendQueries(nil, qs)
	got, err := DecodeBatch(ContentType, bytes.NewReader(frame))
	if err != nil || len(got) != len(qs) {
		t.Fatalf("binary: %d rows, %v", len(got), err)
	}
	got, err = DecodeBatch("application/json", strings.NewReader(
		`[{"lat":1,"lon":2},{"lat":3,"lon":4,"speed":5,"bearing":null}]`))
	if err != nil || len(got) != 2 || got[1].Speed == nil || *got[1].Speed != 5 || got[1].Bearing != nil {
		t.Fatalf("json: %+v, %v", got, err)
	}

	nan := math.NaN()
	bad := map[string]struct {
		ct   string
		body []byte
	}{
		"empty json":        {"", []byte(`[]`)},
		"null json":         {"", []byte(`null`)},
		"object json":       {"", []byte(`{"lat":1,"lon":2}`)},
		"typed wrong":       {"", []byte(`[{"lat":1,"lon":2,"speed":"fast"}]`)},
		"out of range json": {"", []byte(`[{"lat":1,"lon":2},{"lat":1,"lon":181}]`)},
		"empty frame":       {ContentType, AppendQueries(nil, nil)},
		"truncated frame":   {ContentType, frame[:len(frame)-1]},
		"nan frame":         {ContentType, AppendQueries(nil, []Query{{Lat: 1, Lon: 2, Speed: &nan}})},
		"json as frame":     {ContentType, []byte(`[{"lat":1,"lon":2}]`)},
		"frame as json":     {"application/json", frame},
	}
	for name, tc := range bad {
		if _, err := DecodeBatch(tc.ct, bytes.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzParseQuery: the /predict query parser never panics, and every
// query it accepts is valid.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"lat=44.8838&lon=-93.21&speed=4.5&bearing=10&intervals=1",
		"lat=90&lon=-180&speed=0&bearing=360",
		"lat=NaN&lon=%2BInf",
		"lat=%zz&lon=1&speed=%",
		"lat=1&lon=2&speed=1e999",
		"&&=&lat&lon==1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		var p QueryParams
		if ParseQuery(raw, &p) != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%q accepted but invalid: %v", raw, err)
		}
		if p.Speed != nil && p.Speed != &p.speed || p.Bearing != nil && p.Bearing != &p.bearing {
			t.Fatalf("%q: optionals do not point into the params' own storage", raw)
		}
	})
}
