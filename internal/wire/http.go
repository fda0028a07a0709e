package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
)

// JSON responses shared by every serving surface — the map server, the
// fleet router and the ingest endpoint — so a success body and an error
// body ({"error":"..."} plus json.Encoder's trailing newline) are
// rendered one way everywhere.

// apiError is the wire form of every error response.
type apiError struct {
	Error string `json:"error"`
}

// encodePool recycles the JSON staging buffers of WriteJSON so the hot
// serving paths do not grow a fresh encoder buffer per response.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// jsonCT is the Content-Type value shared by every JSON response.
// Assigning the slice directly (SetJSONType) instead of Header().Set
// avoids the per-request []string{v} allocation Set performs; the slice
// is never mutated, only replaced wholesale by handlers that set a
// different type.
var jsonCT = []string{"application/json"}

// SetJSONType marks the response as application/json without
// allocating.
func SetJSONType(w http.ResponseWriter) {
	w.Header()["Content-Type"] = jsonCT
}

// WriteJSON sends v as a JSON body with the given status. The value is
// encoded into a pooled buffer first: the bytes on the wire are the same
// as encoding straight into w (json.Encoder's trailing newline
// included), but a marshal failure still becomes a clean 500 instead of
// a torn body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf := encodePool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		encodePool.Put(buf)
		SetJSONType(w)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
		return
	}
	SetJSONType(w)
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
	encodePool.Put(buf)
}

// WriteError sends a structured JSON error, {"error": msg}, with the
// given status.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, apiError{Error: msg})
}
