package mapserver

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"lumos5g/internal/engine"
)

// predictResponse is the historical /predict wire form, kept as the
// reference the encoder is pinned against and the shape tests decode
// bodies into. Tier and Source attribute the serving model tier; Tier
// is -1 when the map itself answered (Source "map-cell" or
// "map-mean"). Group mirrors Source for clients of the pre-fallback
// API.
type predictResponse struct {
	Mbps     float64  `json:"mbps"`
	Class    string   `json:"class"`
	Group    string   `json:"group"`
	Source   string   `json:"source"`
	Tier     int      `json:"tier"`
	Degraded bool     `json:"degraded"`
	Missing  []string `json:"missing,omitempty"`
}

// predictIntervalResponse is the historical ?intervals=1 wire form: the
// point fields with the p10/p50/p90 band spliced in right after mbps
// (P50 always equals Mbps).
type predictIntervalResponse struct {
	Mbps     float64  `json:"mbps"`
	P10      float64  `json:"p10"`
	P50      float64  `json:"p50"`
	P90      float64  `json:"p90"`
	Class    string   `json:"class"`
	Group    string   `json:"group"`
	Source   string   `json:"source"`
	Tier     int      `json:"tier"`
	Degraded bool     `json:"degraded"`
	Missing  []string `json:"missing,omitempty"`
}

// pointRef is an engine answer in the historical point struct shape.
func pointRef(p engine.Prediction) predictResponse {
	return predictResponse{
		Mbps: p.Mbps, Class: p.Class, Group: p.Source, Source: p.Source,
		Tier: p.Tier, Degraded: p.Degraded, Missing: p.Missing,
	}
}

// intervalRef is an engine answer in the historical interval struct
// shape.
func intervalRef(p engine.Prediction) predictIntervalResponse {
	return predictIntervalResponse{
		Mbps: p.Mbps, P10: p.P10, P50: p.Mbps, P90: p.P90,
		Class: p.Class, Group: p.Source, Source: p.Source,
		Tier: p.Tier, Degraded: p.Degraded, Missing: p.Missing,
	}
}

// TestAppendPredictResponseMatchesStdlib pins the point form of the
// hand-rolled wire encoder to encoding/json byte for byte: every float
// form the
// standard library special-cases, every string escape class (JSON
// escapes, HTML escaping, invalid UTF-8, U+2028/U+2029), and the
// omitempty boundary of the missing list.
func TestAppendPredictResponseMatchesStdlib(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 123.456, -981.25, 0.125,
		1e-6, 9.999e-7, 1e-7, 5e-324, 1e21, 1e20 * 9.999, -1e21, 2.5e30,
		math.MaxFloat64, -math.MaxFloat64, 1234.000244140625, 888.125,
		1e-21, 3.14159265358979, 7e+100,
	}
	strs := []string{
		"", "L+M", "map-cell", "gbdt-l+m", "plain ascii",
		"quote\"back\\slash", "tab\tnew\nret\r", "ctl\x01\x1f",
		"html<&>", "uni\u00e9\u4e16\u754c", "bad\xffutf8", "trunc\xc3",
		"sep\u2028and\u2029end", "emoji\U0001F600",
	}
	missing := [][]string{nil, {}, {"speed"}, {"speed", "bearing"}, {"we<ird&"}}
	var i int
	for _, f := range floats {
		for _, s := range strs {
			p := engine.Prediction{
				Mbps:     f,
				Class:    s,
				Source:   strs[(i+3)%len(strs)],
				Tier:     i%5 - 1,
				Degraded: i%2 == 0,
				Missing:  missing[i%len(missing)],
			}
			i++
			want, err := json.Marshal(pointRef(p))
			if err != nil {
				t.Fatal(err)
			}
			got := appendPrediction(nil, p, false)
			if !bytes.Equal(got, want) {
				t.Fatalf("encoder diverges for %+v:\n got %s\nwant %s", p, got, want)
			}
		}
	}
}

// TestMarshalResponseMatchesEncoder pins the cached point wire body to
// what json.Encoder.Encode would emit (trailing newline included): the
// byte-identity contract between cached hits, uncached recomputes and
// the pre-cache wire format.
func TestMarshalResponseMatchesEncoder(t *testing.T) {
	p := engine.Prediction{Mbps: 432.1875, Class: "High", Source: "L+M", Tier: 0}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(pointRef(p)); err != nil {
		t.Fatal(err)
	}
	if got := predictBody(p, false); !bytes.Equal(got, buf.Bytes()) {
		t.Fatalf("predictBody %q != json.Encoder %q", got, buf.Bytes())
	}
}

// TestBatchBodyMatchesStdlib pins the batch array rendering, in both
// flavours, to json.Encoder of the historical response structs.
func TestBatchBodyMatchesStdlib(t *testing.T) {
	out := []engine.Prediction{
		{Mbps: 100.5, Class: "Low", Source: "L", Tier: 1, P10: 100.5, P90: 100.5},
		{Mbps: 901.25, Class: "High", Source: "L+M", Tier: 0, Degraded: true, Missing: []string{"speed"},
			P10: 700.5, P90: 1010, HasInterval: true},
	}
	for _, ival := range []bool{false, true} {
		var ref any
		if ival {
			rows := make([]predictIntervalResponse, len(out))
			for i := range out {
				rows[i] = intervalRef(out[i])
			}
			ref = rows
		} else {
			rows := make([]predictResponse, len(out))
			for i := range out {
				rows[i] = pointRef(out[i])
			}
			ref = rows
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(ref); err != nil {
			t.Fatal(err)
		}
		b := []byte{'['}
		for i := range out {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPrediction(b, out[i], ival)
		}
		b = append(b, ']', '\n')
		if !bytes.Equal(b, buf.Bytes()) {
			t.Fatalf("intervals=%v: batch body %q != json.Encoder %q", ival, b, buf.Bytes())
		}
	}
}
