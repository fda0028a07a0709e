package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"lumos5g/internal/mapserver"
	"lumos5g/internal/wire"
)

// TestFleetBatchBinaryByteIdentity is the merge contract of the binary
// wire format: a binary /predict/batch scattered across shards and
// re-encoded by the router must be byte-identical to the frame a single
// server holding the whole map would have produced. Every shard serves
// a slice of the same map through the same chain, and the frame
// encoding is deterministic, so any byte of difference means the router
// dropped or reordered something in the merge.
func TestFleetBatchBinaryByteIdentity(t *testing.T) {
	f := startTestFleet(t, testFleetConfig())
	tm, chain, points := fixture(t)
	solo, err := mapserver.NewWithChain(tm, chain)
	if err != nil {
		t.Fatal(err)
	}

	qs := make([]wire.Query, 0, len(points))
	for i, p := range points {
		q := wire.Query{Lat: p[0], Lon: p[1]}
		if i%2 == 0 {
			sp, br := float64(i%20), float64((i*37)%360)
			q.Speed, q.Bearing = &sp, &br
		}
		qs = append(qs, q)
	}
	frame := wire.AppendQueries(nil, qs)

	post := func(h http.Handler, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/predict/batch", bytes.NewReader(frame))
		req.Header.Set("Content-Type", wire.ContentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	fleetRec := post(f.Router(), wire.ContentType)
	soloRec := post(solo, wire.ContentType)
	for name, rec := range map[string]*httptest.ResponseRecorder{"fleet": fleetRec, "solo": soloRec} {
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != wire.ContentType {
			t.Fatalf("%s: Content-Type %q", name, ct)
		}
	}
	if !bytes.Equal(fleetRec.Body.Bytes(), soloRec.Body.Bytes()) {
		fr, ferr := wire.DecodeResults(fleetRec.Body.Bytes(), len(qs))
		sr, serr := wire.DecodeResults(soloRec.Body.Bytes(), len(qs))
		t.Fatalf("fleet frame (%d bytes) != solo frame (%d bytes); decoded fleet %v (%v) solo %v (%v)",
			fleetRec.Body.Len(), soloRec.Body.Len(), fr, ferr, sr, serr)
	}
	rows, err := wire.DecodeResults(fleetRec.Body.Bytes(), len(qs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(qs) {
		t.Fatalf("%d rows for %d queries", len(rows), len(qs))
	}

	// Same binary request without the Accept header: the answer must
	// fall back to the JSON BatchResponse envelope, rows intact.
	jsonRec := post(f.Router(), "")
	if jsonRec.Code != http.StatusOK {
		t.Fatalf("binary-in/json-out: %d %s", jsonRec.Code, jsonRec.Body.String())
	}
	var env BatchResponse
	if err := json.Unmarshal(jsonRec.Body.Bytes(), &env); err != nil {
		t.Fatalf("binary-in/json-out is not a BatchResponse: %v", err)
	}
	if env.Partial || len(env.Rows) != len(qs) {
		t.Fatalf("binary-in/json-out: partial=%v rows=%d", env.Partial, len(env.Rows))
	}
	for i, br := range env.Rows {
		if br.Mbps == nil || *br.Mbps != rows[i].Mbps {
			t.Fatalf("row %d: JSON mbps %v != binary mbps %v", i, br.Mbps, rows[i].Mbps)
		}
	}
}
