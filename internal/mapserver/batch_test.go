package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"lumos5g/internal/wire"
)

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// TestPredictBatchEndpoint: each element of a batch answer must equal
// the corresponding single-query /predict answer.
func TestPredictBatchEndpoint(t *testing.T) {
	srv := newTestServer(t)

	singles := []string{
		fmt.Sprintf("%s/predict?lat=%f&lon=%f&speed=4.5&bearing=10", srv.URL, testLat, testLon),
		fmt.Sprintf("%s/predict?lat=%f&lon=%f", srv.URL, testLat, testLon),
		fmt.Sprintf("%s/predict?lat=0&lon=0", srv.URL),
	}
	want := make([]predictResponse, len(singles))
	for i, u := range singles {
		resp, body := get(t, u)
		if resp.StatusCode != 200 {
			t.Fatalf("single query %d: %d %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &want[i]); err != nil {
			t.Fatal(err)
		}
	}

	batch := fmt.Sprintf(
		`[{"lat":%f,"lon":%f,"speed":4.5,"bearing":10},{"lat":%f,"lon":%f},{"lat":0,"lon":0}]`,
		testLat, testLon, testLat, testLon)
	resp, body := postJSON(t, srv.URL+"/predict/batch", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var got []predictResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d answers for %d queries", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: batch %+v != single %+v", i, got[i], want[i])
		}
	}
}

func TestPredictBatchValidation(t *testing.T) {
	srv := newTestServer(t)

	cases := []struct {
		name, body string
	}{
		{"malformed json", `{"lat":`},
		{"not an array", `{"lat":1,"lon":2}`},
		{"empty batch", `[]`},
		{"lat out of range", `[{"lat":91,"lon":0}]`},
		{"lon out of range", `[{"lat":0,"lon":-181}]`},
		{"bad speed", `[{"lat":0,"lon":0,"speed":-1}]`},
		{"bad bearing", `[{"lat":0,"lon":0,"bearing":999}]`},
	}
	for _, tc := range cases {
		if resp, body := postJSON(t, srv.URL+"/predict/batch", tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d %s", tc.name, resp.StatusCode, body)
		}
	}

	// The batch-size cap is enforced before any prediction runs.
	var sb strings.Builder
	sb.WriteString("[")
	for i := 0; i <= wire.MaxBatchQueries; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"lat":0,"lon":0}`)
	}
	sb.WriteString("]")
	if resp, body := postJSON(t, srv.URL+"/predict/batch", sb.String()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: want 400, got %d %s", resp.StatusCode, body)
	}
}

// postRaw sends body with explicit Content-Type/Accept headers and
// returns the response plus its full body.
func postRaw(t *testing.T, url string, body []byte, contentType, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, got
}

// TestPredictBatchBinary covers both directions of the content
// negotiation independently: a binary request frame decodes to the same
// answers as the JSON form, a binary Accept gets a binary frame
// regardless of the request encoding, and the binary rows carry exactly
// the JSON rows (with group mirroring source, as documented).
func TestPredictBatchBinary(t *testing.T) {
	srv := newTestServer(t)

	batch := fmt.Sprintf(
		`[{"lat":%f,"lon":%f,"speed":4.5,"bearing":10},{"lat":%f,"lon":%f},{"lat":0,"lon":0}]`,
		testLat, testLon, testLat, testLon)
	resp, body := postJSON(t, srv.URL+"/predict/batch", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("json batch: %d %s", resp.StatusCode, body)
	}
	var want []predictResponse
	if err := json.Unmarshal([]byte(body), &want); err != nil {
		t.Fatal(err)
	}

	sp, br := 4.5, 10.0
	qs := []wire.Query{
		{Lat: testLat, Lon: testLon, Speed: &sp, Bearing: &br},
		{Lat: testLat, Lon: testLon},
		{},
	}
	frame := wire.AppendQueries(nil, qs)

	// Binary in, binary out.
	resp, respFrame := postRaw(t, srv.URL+"/predict/batch", frame, wire.ContentType, wire.ContentType)
	if resp.StatusCode != 200 {
		t.Fatalf("binary batch: %d %s", resp.StatusCode, respFrame)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary batch Content-Type %q", ct)
	}
	rows, err := wire.DecodeResults(respFrame, wire.MaxBatchQueries)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("binary batch returned %d rows for %d queries", len(rows), len(want))
	}
	for i, r := range rows {
		w := want[i]
		if w.Group != w.Source {
			t.Fatalf("row %d: JSON group %q != source %q — the wire format assumes they mirror", i, w.Group, w.Source)
		}
		if r.Mbps != w.Mbps || r.Class != w.Class || r.Source != w.Source ||
			r.Tier != w.Tier || r.Degraded != w.Degraded || !reflect.DeepEqual(r.Missing, w.Missing) {
			t.Fatalf("row %d: binary %+v != json %+v", i, r, w)
		}
	}

	// Binary in, JSON out (no Accept): byte-identical to the JSON path.
	resp, jsonBody := postRaw(t, srv.URL+"/predict/batch", frame, wire.ContentType, "")
	if resp.StatusCode != 200 {
		t.Fatalf("binary-in/json-out: %d %s", resp.StatusCode, jsonBody)
	}
	if string(jsonBody) != body {
		t.Fatalf("binary-in/json-out body diverged:\n%s\nvs\n%s", jsonBody, body)
	}

	// JSON in, binary out: byte-identical to the binary path.
	resp, frame2 := postRaw(t, srv.URL+"/predict/batch", []byte(batch), "application/json", wire.ContentType)
	if resp.StatusCode != 200 {
		t.Fatalf("json-in/binary-out: %d %s", resp.StatusCode, frame2)
	}
	if !bytes.Equal(frame2, respFrame) {
		t.Fatal("json-in/binary-out frame diverged from binary-in/binary-out")
	}

	// A corrupt binary frame is a 400, not a decode panic or a 500.
	resp, msg := postRaw(t, srv.URL+"/predict/batch", []byte("L5GBgarbage"), wire.ContentType, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt frame: want 400, got %d %s", resp.StatusCode, msg)
	}
}

// TestBatchMethodPolicy: POST is allowed only on /predict/batch; the
// rest of the service stays read-only.
func TestBatchMethodPolicy(t *testing.T) {
	srv := newTestServer(t)

	if resp, _ := postJSON(t, srv.URL+"/predict", `[]`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /predict: want 405, got %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/healthz", `{}`); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz: want 405, got %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/predict/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict/batch: want 405, got %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Fatalf("GET /predict/batch Allow header %q should advertise POST", allow)
	}
}

// TestPredictBatchModelless: a server without a model answers every
// batch element from the throughput map, like the single endpoint.
func TestPredictBatchModelless(t *testing.T) {
	tm, _ := setup(t)
	s, err := New(tm, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	defer srv.Close()

	batch := fmt.Sprintf(`[{"lat":%f,"lon":%f},{"lat":0,"lon":0}]`, testLat, testLon)
	resp, body := postJSON(t, srv.URL+"/predict/batch", batch)
	if resp.StatusCode != 200 {
		t.Fatalf("modelless batch: %d %s", resp.StatusCode, body)
	}
	var got []predictResponse
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if got[0].Tier != -1 || got[0].Source != "map-cell" {
		t.Fatalf("in-map query should answer from its cell: %+v", got[0])
	}
	if got[1].Tier != -1 || got[1].Source != "map-mean" {
		t.Fatalf("off-map query should answer from the map mean: %+v", got[1])
	}
}
