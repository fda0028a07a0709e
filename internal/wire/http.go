package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// JSON responses shared by every serving surface — the map server, the
// fleet router and the ingest endpoint — so a success body and an error
// body ({"error":"..."} plus json.Encoder's trailing newline) are
// rendered one way everywhere, and the status-capturing writer both
// hops count requests through.

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

// StatusWriter records the status code and body size a handler (or the
// middleware beneath it) actually sent, for the request counters and
// access logs of both hops.
type StatusWriter struct {
	http.ResponseWriter
	Code  int   // first status sent; 0 until the handler writes
	Bytes int64 // body bytes written
}

func (w *StatusWriter) WriteHeader(code int) {
	if w.Code == 0 {
		w.Code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(p []byte) (int, error) {
	if w.Code == 0 {
		w.Code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.Bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *StatusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Status is the status the client saw: 200 when the handler wrote
// nothing at all.
func (w *StatusWriter) Status() int {
	if w.Code == 0 {
		return http.StatusOK
	}
	return w.Code
}

// StatusLabel renders an HTTP status code as its metrics label without
// allocating for the codes the serving hops produce (strconv.Itoa only
// caches values below 100).
func StatusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusRequestEntityTooLarge:
		return "413"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(code)
}
