package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/wire"
)

// TestRouterReplicaAgreement: the router and a replica decode queries
// with the same code, so every query gets the same status from both —
// a query the router accepts is never rejected downstream, and a query
// a replica rejects is rejected up front.
func TestRouterReplicaAgreement(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	tm, chain, points := fixture(t)
	replica, err := mapserver.NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	at := fmt.Sprintf("lat=%.8f&lon=%.8f", p[0], p[1])

	gets := []struct {
		name, rawQuery string
		want           int
	}{
		{"full", at + "&speed=4.5&bearing=10", 200},
		{"location only", at, 200},
		{"intervals", at + "&speed=4.5&bearing=10&intervals=1", 200},
		{"min corner", "lat=-90&lon=-180&speed=0&bearing=-360", 200},
		{"max corner", "lat=90&lon=180&speed=500&bearing=360", 200},
		{"lat past max", "lat=90.000001&lon=0", 400},
		{"lon past min", "lat=0&lon=-180.000001", 400},
		{"speed past max", at + "&speed=500.000001", 400},
		{"negative speed", at + "&speed=-0.000001", 400},
		{"bearing past max", at + "&bearing=360.000001", 400},
		{"NaN lat", "lat=NaN&lon=0", 400},
		{"Inf lon", "lat=0&lon=Inf", 400},
		{"escaped +Inf speed", at + "&speed=%2BInf", 400},
		{"-Inf bearing", at + "&bearing=-Inf", 400},
		{"percent escapes", "lat=%34%34.88&lon=%2D93.21&speed=%34", 200},
		{"plus is a space", "lat=44.88+&lon=-93.21", 400},
		{"malformed escape in optional", at + "&speed=%zz", 200},
		{"malformed escape in lat", "lat=%zz&lon=0", 400},
		{"missing lat", "lon=-93.21", 400},
		{"missing lon", "lat=44.88", 400},
		{"empty query", "", 400},
		{"malformed speed", at + "&speed=fast", 400},
		{"malformed bearing", at + "&bearing=1e999", 400},
		{"empty optionals", at + "&speed=&bearing=", 200},
		{"first value wins", "lat=91&lat=44.88&lon=-93.21", 400},
	}
	for _, tc := range gets {
		viaReplica := statusOf(replica, httptest.NewRequest(http.MethodGet, "/predict?"+tc.rawQuery, nil))
		viaRouter := statusOf(f.Router(), httptest.NewRequest(http.MethodGet, "/predict?"+tc.rawQuery, nil))
		if viaReplica != tc.want || viaRouter != tc.want {
			t.Errorf("GET %s (%q): replica %d, router %d, want %d", tc.name, tc.rawQuery, viaReplica, viaRouter, tc.want)
		}
	}

	nan, inf, sp, br := math.NaN(), math.Inf(1), 4.5, 10.0
	valid := []wire.Query{{Lat: p[0], Lon: p[1], Speed: &sp, Bearing: &br}, {Lat: p[0], Lon: p[1]}}
	frame := wire.AppendQueries(nil, valid)
	rows := func(n int) []wire.Query {
		qs := make([]wire.Query, n)
		for i := range qs {
			pt := points[i%len(points)]
			qs[i] = wire.Query{Lat: pt[0], Lon: pt[1]}
		}
		return qs
	}
	jsonRows := func(qs []wire.Query) string {
		b, err := json.Marshal(qs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	posts := []struct {
		name, contentType string
		body              []byte
		want              int
	}{
		{"json", "application/json", []byte(jsonRows(valid)), 200},
		{"json corners", "application/json", []byte(`[{"lat":-90,"lon":-180,"speed":0,"bearing":-360},{"lat":90,"lon":180,"speed":500,"bearing":360}]`), 200},
		{"json null optionals", "application/json", []byte(`[{"lat":44.88,"lon":-93.21,"speed":null,"bearing":null}]`), 200},
		{"json missing lat reads as 0", "application/json", []byte(`[{"lon":-93.21}]`), 200},
		{"json lat past max", "application/json", []byte(`[{"lat":90.000001,"lon":0}]`), 400},
		{"json negative speed", "application/json", []byte(`[{"lat":0,"lon":0,"speed":-1}]`), 400},
		{"json bearing past max", "application/json", []byte(`[{"lat":0,"lon":0,"bearing":361}]`), 400},
		{"json NaN literal", "application/json", []byte(`[{"lat":NaN,"lon":0}]`), 400},
		{"json malformed speed", "application/json", []byte(`[{"lat":0,"lon":0,"speed":"fast"}]`), 400},
		{"json empty", "application/json", []byte(`[]`), 400},
		{"json null", "application/json", []byte(`null`), 400},
		{"json object", "application/json", []byte(`{"lat":0,"lon":0}`), 400},
		{"json truncated", "application/json", []byte(`[{"lat":`), 400},
		{"json at limit", "application/json", []byte(jsonRows(rows(wire.MaxBatchQueries))), 200},
		{"json over limit", "application/json", []byte(jsonRows(rows(wire.MaxBatchQueries + 1))), 400},
		{"binary", wire.ContentType, frame, 200},
		{"binary NaN lat", wire.ContentType, wire.AppendQueries(nil, []wire.Query{{Lat: nan, Lon: 0}}), 400},
		{"binary Inf speed", wire.ContentType, wire.AppendQueries(nil, []wire.Query{{Lat: 0, Lon: 0, Speed: &inf}}), 400},
		{"binary empty", wire.ContentType, wire.AppendQueries(nil, nil), 400},
		{"binary truncated", wire.ContentType, frame[:len(frame)-3], 400},
		{"binary at limit", wire.ContentType, wire.AppendQueries(nil, rows(wire.MaxBatchQueries)), 200},
		{"binary over limit", wire.ContentType, wire.AppendQueries(nil, rows(wire.MaxBatchQueries+1)), 400},
		{"json sent as binary", wire.ContentType, []byte(jsonRows(valid)), 400},
	}
	for _, tc := range posts {
		status := func(h http.Handler) int {
			req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			return statusOf(h, req)
		}
		viaReplica, viaRouter := status(replica), status(f.Router())
		if viaReplica != tc.want || viaRouter != tc.want {
			t.Errorf("POST %s: replica %d, router %d, want %d", tc.name, viaReplica, viaRouter, tc.want)
		}
	}
}

func statusOf(h http.Handler, req *http.Request) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestFleetBatchLimit: the router admits exactly the replicas' batch
// limit. A full-size batch is answered whole by a healthy fleet, and a
// larger one is rejected up front — never scattered into sub-batches a
// replica would refuse and reported back as partial.
func TestFleetBatchLimit(t *testing.T) {
	f, points := startCalibratedFleet(t)
	batch := func(n int) string {
		var sb strings.Builder
		sb.WriteString("[")
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			p := points[i%len(points)]
			fmt.Fprintf(&sb, `{"lat":%.8f,"lon":%.8f,"speed":%d,"bearing":%d}`, p[0], p[1], i%20, (i*37)%360)
		}
		sb.WriteString("]")
		return sb.String()
	}
	for _, n := range []int{wire.MaxBatchQueries, wire.MaxBatchQueries + 1, 9000} {
		req := httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(batch(n)))
		req.Header.Set("Content-Type", "application/json")
		code, body, _ := routerDo(f, req)
		if n > wire.MaxBatchQueries {
			if code != http.StatusBadRequest {
				t.Fatalf("%d rows: status %d, want 400: %.200s", n, code, body)
			}
			continue
		}
		if code != http.StatusOK {
			t.Fatalf("%d rows: status %d: %.200s", n, code, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Partial || len(resp.Rows) != n {
			t.Fatalf("%d rows: partial=%v with %d rows", n, resp.Partial, len(resp.Rows))
		}
		for i, row := range resp.Rows {
			if row.Mbps == nil || row.Error != "" {
				t.Fatalf("row %d failed on a healthy fleet: %+v", i, row)
			}
		}
	}
}

// TestRouterReplicaIngestAgreement: the router and a replica decode
// /ingest bodies with the same code under the same byte cap, so every
// body gets the same status and error from both — and a full-size
// campaign batch, larger than the historical 1 MiB replica cap, is
// admitted whole by both rather than refused by the replica and
// reported back by the router as a failed shard. /predict/batch shares
// its byte cap across the hops the same way.
func TestRouterReplicaIngestAgreement(t *testing.T) {
	cfg := testFleetConfig()
	cfg.Shards, cfg.Replicas = 1, 1
	cfg.Ingest = &ingest.Config{}
	f := startTestFleet(t, cfg)
	tm, chain, _ := fixture(t)
	replica, err := mapserver.NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}
	replica.AttachIngestor(ingest.New(replica.Metrics(), ingest.Config{}))

	campaign := ingestSamples(t, ingest.MaxBatchSamples)
	batch := func(n int) []byte {
		s := make([]ingest.Sample, n)
		for i := range s {
			s[i] = campaign[i%len(campaign)]
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	full := batch(ingest.MaxBatchSamples)
	if len(full) <= 1<<20 {
		t.Fatalf("full-size batch is only %d bytes; it must exceed the old 1 MiB cap", len(full))
	}
	padded := func(n int) []byte {
		b := append([]byte("["), bytes.Repeat([]byte(" "), n)...)
		return append(b, ']')
	}

	const ing, bat = "/ingest", "/predict/batch"
	cases := []struct {
		path, name string
		body       []byte
		want       int
	}{
		{ing, "malformed", []byte(`[{"lat":`), 400},
		{ing, "object", []byte(`{"lat":44.88,"lon":-93.21}`), 400},
		{ing, "wrong field type", []byte(`[{"lat":"north"}]`), 400},
		{ing, "not json", []byte(`lat=44.88`), 400},
		{ing, "empty", []byte(`[]`), 400},
		{ing, "null", []byte(`null`), 400},
		{ing, "rows over limit", batch(ingest.MaxBatchSamples + 1), 400},
		{ing, "bytes over limit", padded(ingest.MaxBatchBytes), 400},
		{bat, "bytes over limit", padded(wire.MaxBatchBytes), 400},
		{ing, "full-size campaign batch", full, 200},
	}
	post := func(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		return rec
	}
	type answer struct {
		Error    string         `json:"error"`
		Partial  bool           `json:"partial"`
		Accepted int            `json:"accepted"`
		Rejected int            `json:"rejected"`
		Dropped  int            `json:"dropped"`
		Failed   int            `json:"failed"`
		Reasons  map[string]int `json:"reasons"`
	}
	for _, tc := range cases {
		viaReplica, viaRouter := post(replica, tc.path, tc.body), post(f.Router(), tc.path, tc.body)
		var a, b answer
		if err := json.Unmarshal(viaReplica.Body.Bytes(), &a); err != nil {
			t.Fatalf("%s %s: replica body %.200q: %v", tc.path, tc.name, viaReplica.Body.String(), err)
		}
		if err := json.Unmarshal(viaRouter.Body.Bytes(), &b); err != nil {
			t.Fatalf("%s %s: router body %.200q: %v", tc.path, tc.name, viaRouter.Body.String(), err)
		}
		if viaReplica.Code != tc.want || viaRouter.Code != tc.want {
			t.Errorf("%s %s: replica %d %q, router %d %q, want %d", tc.path, tc.name,
				viaReplica.Code, a.Error, viaRouter.Code, b.Error, tc.want)
			continue
		}
		if tc.want != http.StatusOK {
			if a.Error == "" || a.Error != b.Error {
				t.Errorf("%s %s: replica error %q, router error %q", tc.path, tc.name, a.Error, b.Error)
			}
			continue
		}
		if b.Partial || b.Failed != 0 || a.Accepted+a.Rejected+a.Dropped != ingest.MaxBatchSamples ||
			a.Accepted != b.Accepted || a.Rejected != b.Rejected || a.Dropped != b.Dropped ||
			!reflect.DeepEqual(a.Reasons, b.Reasons) {
			t.Errorf("%s: replica %+v, router %+v", tc.name, a, b)
		}
	}
}
