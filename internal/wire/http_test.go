package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONMatchesStreamingEncoder: WriteJSON puts exactly the
// bytes a json.Encoder streaming into the response would (trailing
// newline included), and WriteError's body is the {"error":...} shape
// the map server, the fleet router and the ingest endpoint all served
// before they shared one writer.
func TestWriteJSONMatchesStreamingEncoder(t *testing.T) {
	v := struct {
		OK     bool     `json:"ok"`
		Shards []string `json:"shards"`
		Note   string   `json:"note,omitempty"`
	}{OK: true, Shards: []string{"s0", "s<1>&"}}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(v)
	rr := httptest.NewRecorder()
	WriteJSON(rr, http.StatusAccepted, v)
	if rr.Code != http.StatusAccepted || rr.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d content type %q", rr.Code, rr.Header().Get("Content-Type"))
	}
	if !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
		t.Fatalf("WriteJSON %q != json.Encoder %q", rr.Body.Bytes(), want.Bytes())
	}

	msg := `bad "query" <lat>`
	want.Reset()
	_ = json.NewEncoder(&want).Encode(map[string]string{"error": msg})
	rr = httptest.NewRecorder()
	WriteError(rr, http.StatusBadRequest, msg)
	if rr.Code != http.StatusBadRequest || !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
		t.Fatalf("WriteError %d %q, want 400 %q", rr.Code, rr.Body.Bytes(), want.Bytes())
	}
}

// TestWriteJSONEncodeFailureIsClean500: a value with no JSON encoding
// becomes a whole structured 500, not a torn body under the caller's
// status.
func TestWriteJSONEncodeFailureIsClean500(t *testing.T) {
	rr := httptest.NewRecorder()
	WriteJSON(rr, http.StatusOK, map[string]float64{"mbps": math.NaN()})
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rr.Code)
	}
	if got := rr.Body.String(); got != `{"error":"response encoding failed"}`+"\n" {
		t.Fatalf("body %q", got)
	}
}
