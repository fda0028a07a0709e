package mapserver

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"lumos5g/internal/engine"
)

// Hand-rolled JSON rendering of the /predict wire form. The byte output
// is pinned — by the stdlib-parity tests in encode_test.go and
// interval_test.go — to be exactly what encoding/json produces for the
// historical response structs (default HTML escaping included), so
// cached bodies, uncached recomputes and batch rows stay byte-identical
// with the historical wire format while skipping the reflection walk
// and per-call scratch of json.Marshal.

// jsonSafe marks the ASCII bytes encoding/json copies through verbatim
// inside a string (its htmlSafeSet): printable, minus the JSON escapes
// and the HTML-sensitive characters.
var jsonSafe = func() (s [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		s[b] = true
	}
	s['"'], s['\\'], s['<'], s['>'], s['&'] = false, false, false, false, false
	return
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with
// encoding/json's default escaping rules: control characters and
// <, >, & as \u00xx, the \n \r \t \" \\ shorthands, invalid UTF-8 as
// �, and the JS line separators U+2028/U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\':
				dst = append(dst, '\\', '\\')
			case '"':
				dst = append(dst, '\\', '"')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite float exactly as encoding/json does:
// shortest 'f' form in [1e-6, 1e21), otherwise 'e' with the exponent's
// leading zero stripped. The caller guarantees finiteness.
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendPrediction appends p as one /predict JSON object — the single
// wire rendering of an engine answer, shared by /predict bodies (cached
// or not) and /predict/batch rows. The point form is
//
//	{"mbps","class","group","source","tier","degraded"[,"missing"]}
//
// with group mirroring source for clients of the pre-fallback API and
// missing omitted when empty. With ival the p10/p50/p90 band follows
// mbps; p50 repeats mbps so clients reading only the triple see a
// complete quantile set, and interval-off answers keep the historical
// field set byte for byte. Returns nil when p has no JSON encoding
// (see engine.Prediction.Finite); the caller turns that into a clean
// 500.
func appendPrediction(dst []byte, p engine.Prediction, ival bool) []byte {
	if !p.Finite() {
		return nil
	}
	dst = append(dst, `{"mbps":`...)
	dst = appendJSONFloat(dst, p.Mbps)
	if ival {
		dst = append(dst, `,"p10":`...)
		dst = appendJSONFloat(dst, p.P10)
		dst = append(dst, `,"p50":`...)
		dst = appendJSONFloat(dst, p.Mbps)
		dst = append(dst, `,"p90":`...)
		dst = appendJSONFloat(dst, p.P90)
	}
	dst = append(dst, `,"class":`...)
	dst = appendJSONString(dst, p.Class)
	dst = append(dst, `,"group":`...)
	dst = appendJSONString(dst, p.Source)
	dst = append(dst, `,"source":`...)
	dst = appendJSONString(dst, p.Source)
	dst = append(dst, `,"tier":`...)
	dst = strconv.AppendInt(dst, int64(p.Tier), 10)
	dst = append(dst, `,"degraded":`...)
	dst = strconv.AppendBool(dst, p.Degraded)
	if len(p.Missing) > 0 {
		dst = append(dst, `,"missing":[`...)
		for i, m := range p.Missing {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, m)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// predictBody renders p as a complete /predict body: appendPrediction
// plus the trailing newline json.Encoder frames every value with. The
// buffer is fresh because cache entries keep it; nil when p has no
// JSON encoding.
func predictBody(p engine.Prediction, ival bool) []byte {
	n := 128
	if ival {
		n = 160
	}
	b := appendPrediction(make([]byte, 0, n), p, ival)
	if b == nil {
		return nil
	}
	return append(b, '\n')
}

// batchBufPool recycles the response-staging buffers of the batch
// paths (JSON array bodies and binary frames).
var batchBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}
