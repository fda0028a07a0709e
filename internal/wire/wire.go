// Package wire implements the compact columnar binary encoding of the
// batch prediction API — the allocation- and bandwidth-lean alternative
// the server and the fleet router negotiate next to the JSON default —
// and the one query decoder and validator both of them use (query.go).
//
// Frames are little-endian and fully deterministic: encoding the same
// logical queries or results always yields the same bytes, which is
// what lets the fleet router's scatter–gather re-encode shard answers
// into a merged frame byte-identical to a single server's (the string
// table is rebuilt in first-use row order on every encode).
//
// Request frame ("L5GB", version 1):
//
//	magic "L5GB" | u8 version | u32 n
//	f64 lat × n                        latitude column
//	f64 lon × n                        longitude column
//	bitmap ⌈n/8⌉                       speed-present bits (LSB-first)
//	f64 × popcount(bitmap)             speeds, packed in row order
//	bitmap ⌈n/8⌉                       bearing-present bits
//	f64 × popcount(bitmap)             bearings, packed in row order
//
// Response frame ("L5GR", version 1):
//
//	magic "L5GR" | u8 version | u32 n
//	u8 nstr | (u8 len, bytes) × nstr   string table, first-use order
//	f64 mbps × n
//	i16 tier × n
//	u8 class index × n                 into the string table
//	u8 source index × n                into the string table (group
//	                                   mirrors source on the wire)
//	bitmap ⌈n/8⌉                       degraded bits
//	(u8 count, u8 index × count) × n   missing features per row
//
// Response frame version 2 (negotiated via ContentTypeIntervals) is the
// version-1 layout followed by the uncertainty columns; the mbps column
// doubles as the p50:
//
//	f64 p10 × n
//	f64 p90 × n
//	bitmap ⌈n/8⌉                       calibrated-interval bits
package wire

import (
	"errors"
	"fmt"
	"math"
)

// ContentType is the negotiated media type of both frame directions: a
// request carrying it as Content-Type is decoded as a binary frame, and
// a request carrying it as Accept is answered with one. Everything else
// stays JSON.
const ContentType = "application/x-lumos5g-batch"

// ContentTypeIntervals is the uncertainty-carrying response
// negotiation: a request whose Accept is exactly this string is
// answered with a version-2 response frame that carries p10/p90
// columns next to the mbps (p50) column. Request frames are the same
// either way — queries carry no intervals — so Content-Type stays
// ContentType.
const ContentTypeIntervals = "application/x-lumos5g-batch-intervals"

// Version is the frame version both directions currently speak.
const Version = 1

// VersionIntervals is the response frame version that appends the
// p10/p90 columns (requests have no version-2 form).
const VersionIntervals = 2

const (
	reqMagic  = "L5GB"
	respMagic = "L5GR"
)

// Query is one prediction query, and one row of the JSON batch form.
// Nil Speed/Bearing mean the sensor reading is absent (the chain
// demotes to a smaller tier), exactly like the JSON form's missing
// fields.
type Query struct {
	Lat     float64  `json:"lat"`
	Lon     float64  `json:"lon"`
	Speed   *float64 `json:"speed,omitempty"`
	Bearing *float64 `json:"bearing,omitempty"`
}

// Result is one batch prediction answer. Group is not carried — it
// mirrors Source on this wire, as documented on the JSON form. The
// interval fields ride only on version-2 frames (AppendResultsIntervals
// / ContentTypeIntervals); version-1 decodes leave them degenerate at
// Mbps with HasInterval false.
type Result struct {
	Mbps     float64
	Class    string
	Source   string
	Tier     int
	Degraded bool
	Missing  []string
	// P10 and P90 bound the nominal 80% band around Mbps (the p50).
	P10, P90 float64
	// HasInterval distinguishes a calibrated band from the degenerate
	// zero-width triple served by uncalibrated tiers.
	HasInterval bool
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(dst []byte, f float64) []byte {
	v := math.Float64bits(f)
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func readU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func readF64(b []byte) float64 {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return math.Float64frombits(v)
}

// bitmapLen is the byte length of an n-bit LSB-first bitmap.
func bitmapLen(n int) int { return (n + 7) / 8 }

// AppendQueries appends the binary request frame for qs.
func AppendQueries(dst []byte, qs []Query) []byte {
	dst = append(dst, reqMagic...)
	dst = append(dst, Version)
	dst = appendU32(dst, uint32(len(qs)))
	for i := range qs {
		dst = appendF64(dst, qs[i].Lat)
	}
	for i := range qs {
		dst = appendF64(dst, qs[i].Lon)
	}
	appendOptional := func(dst []byte, get func(*Query) *float64) []byte {
		off := len(dst)
		dst = append(dst, make([]byte, bitmapLen(len(qs)))...)
		for i := range qs {
			if p := get(&qs[i]); p != nil {
				dst[off+i/8] |= 1 << (i % 8)
				dst = appendF64(dst, *p)
			}
		}
		return dst
	}
	dst = appendOptional(dst, func(q *Query) *float64 { return q.Speed })
	dst = appendOptional(dst, func(q *Query) *float64 { return q.Bearing })
	return dst
}

var errTruncated = errors.New("wire: truncated frame")

// DecodeQueries parses a binary request frame. maxQueries bounds the
// declared row count before any allocation sized from it.
func DecodeQueries(b []byte, maxQueries int) ([]Query, error) {
	if len(b) < len(reqMagic)+1+4 {
		return nil, errTruncated
	}
	if string(b[:4]) != reqMagic {
		return nil, errors.New("wire: not a batch request frame")
	}
	if b[4] != Version {
		return nil, fmt.Errorf("wire: unsupported request frame version %d", b[4])
	}
	n := int(readU32(b[5:]))
	if n < 0 || n > maxQueries {
		return nil, fmt.Errorf("wire: frame declares %d queries, limit %d", n, maxQueries)
	}
	b = b[9:]
	if len(b) < 16*n {
		return nil, errTruncated
	}
	qs := make([]Query, n)
	for i := 0; i < n; i++ {
		qs[i].Lat = readF64(b[8*i:])
	}
	b = b[8*n:]
	for i := 0; i < n; i++ {
		qs[i].Lon = readF64(b[8*i:])
	}
	b = b[8*n:]
	readOptional := func(b []byte, set func(int, float64)) ([]byte, error) {
		bl := bitmapLen(n)
		if len(b) < bl {
			return nil, errTruncated
		}
		bm := b[:bl]
		b = b[bl:]
		for i := 0; i < n; i++ {
			if bm[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			if len(b) < 8 {
				return nil, errTruncated
			}
			set(i, readF64(b))
			b = b[8:]
		}
		return b, nil
	}
	var err error
	b, err = readOptional(b, func(i int, v float64) { qs[i].Speed = &v })
	if err != nil {
		return nil, err
	}
	b, err = readOptional(b, func(i int, v float64) { qs[i].Bearing = &v })
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after request frame")
	}
	return qs, nil
}

// maxTableStrings and maxStringLen are the string-table bounds (both
// u8-indexed on the wire). Tier names, class names and feature names
// are short and few; hitting either bound means the caller is encoding
// something that is not a prediction response.
const (
	maxTableStrings = 255
	maxStringLen    = 255
)

// stringTable interns strings in first-use order for one encode pass.
type stringTable struct {
	idx   map[string]int
	order []string
}

func (t *stringTable) intern(s string) (int, error) {
	if i, ok := t.idx[s]; ok {
		return i, nil
	}
	if len(t.order) >= maxTableStrings {
		return 0, fmt.Errorf("wire: string table overflow (> %d distinct strings)", maxTableStrings)
	}
	if len(s) > maxStringLen {
		return 0, fmt.Errorf("wire: string %q exceeds %d bytes", s, maxStringLen)
	}
	if t.idx == nil {
		t.idx = make(map[string]int, 8)
	}
	i := len(t.order)
	t.idx[s] = i
	t.order = append(t.order, s)
	return i, nil
}

// AppendResults appends the version-1 binary response frame for rs
// (interval fields ignored). The string table is built in first-use row
// order, so re-encoding decoded rows reproduces the frame byte for
// byte — the property the fleet router's merge path relies on.
func AppendResults(dst []byte, rs []Result) ([]byte, error) {
	return appendResults(dst, rs, Version)
}

// AppendResultsIntervals appends the version-2 response frame: the
// version-1 layout plus p10/p90 columns and the calibrated bitmap.
// Deterministic like AppendResults, and byte-identical across encode
// sites for the same logical rows.
func AppendResultsIntervals(dst []byte, rs []Result) ([]byte, error) {
	return appendResults(dst, rs, VersionIntervals)
}

func appendResults(dst []byte, rs []Result, version byte) ([]byte, error) {
	n := len(rs)
	var tab stringTable
	classIdx := make([]int, n)
	srcIdx := make([]int, n)
	missIdx := make([][]int, n)
	for i := range rs {
		var err error
		if classIdx[i], err = tab.intern(rs[i].Class); err != nil {
			return nil, err
		}
		if srcIdx[i], err = tab.intern(rs[i].Source); err != nil {
			return nil, err
		}
		if len(rs[i].Missing) > maxStringLen {
			return nil, fmt.Errorf("wire: %d missing features in one row", len(rs[i].Missing))
		}
		if len(rs[i].Missing) > 0 {
			missIdx[i] = make([]int, len(rs[i].Missing))
			for j, m := range rs[i].Missing {
				if missIdx[i][j], err = tab.intern(m); err != nil {
					return nil, err
				}
			}
		}
		if rs[i].Tier < math.MinInt16 || rs[i].Tier > math.MaxInt16 {
			return nil, fmt.Errorf("wire: tier %d out of int16 range", rs[i].Tier)
		}
	}
	dst = append(dst, respMagic...)
	dst = append(dst, version)
	dst = appendU32(dst, uint32(n))
	dst = append(dst, byte(len(tab.order)))
	for _, s := range tab.order {
		dst = append(dst, byte(len(s)))
		dst = append(dst, s...)
	}
	for i := range rs {
		dst = appendF64(dst, rs[i].Mbps)
	}
	for i := range rs {
		t := uint16(int16(rs[i].Tier))
		dst = append(dst, byte(t), byte(t>>8))
	}
	for i := range rs {
		dst = append(dst, byte(classIdx[i]))
	}
	for i := range rs {
		dst = append(dst, byte(srcIdx[i]))
	}
	off := len(dst)
	dst = append(dst, make([]byte, bitmapLen(n))...)
	for i := range rs {
		if rs[i].Degraded {
			dst[off+i/8] |= 1 << (i % 8)
		}
	}
	for i := range rs {
		dst = append(dst, byte(len(missIdx[i])))
		for _, m := range missIdx[i] {
			dst = append(dst, byte(m))
		}
	}
	if version >= VersionIntervals {
		for i := range rs {
			dst = appendF64(dst, rs[i].P10)
		}
		for i := range rs {
			dst = appendF64(dst, rs[i].P90)
		}
		off := len(dst)
		dst = append(dst, make([]byte, bitmapLen(n))...)
		for i := range rs {
			if rs[i].HasInterval {
				dst[off+i/8] |= 1 << (i % 8)
			}
		}
	}
	return dst, nil
}

// DecodeResults parses a binary response frame, accepting both the
// version-1 point form and the version-2 interval form. maxResults
// bounds the declared row count before any allocation sized from it.
// Version-1 rows come back with the degenerate band P10 = Mbps = P90
// and HasInterval false, so the struct's ordering invariant holds
// regardless of which frame arrived.
func DecodeResults(b []byte, maxResults int) ([]Result, error) {
	if len(b) < len(respMagic)+1+4+1 {
		return nil, errTruncated
	}
	if string(b[:4]) != respMagic {
		return nil, errors.New("wire: not a batch response frame")
	}
	version := b[4]
	if version != Version && version != VersionIntervals {
		return nil, fmt.Errorf("wire: unsupported response frame version %d", version)
	}
	n := int(readU32(b[5:]))
	if n < 0 || n > maxResults {
		return nil, fmt.Errorf("wire: frame declares %d results, limit %d", n, maxResults)
	}
	b = b[9:]
	nstr := int(b[0])
	b = b[1:]
	table := make([]string, nstr)
	for i := 0; i < nstr; i++ {
		if len(b) < 1 {
			return nil, errTruncated
		}
		l := int(b[0])
		if len(b) < 1+l {
			return nil, errTruncated
		}
		table[i] = string(b[1 : 1+l])
		b = b[1+l:]
	}
	need := 8*n + 2*n + n + n + bitmapLen(n)
	if len(b) < need {
		return nil, errTruncated
	}
	rs := make([]Result, n)
	for i := 0; i < n; i++ {
		rs[i].Mbps = readF64(b[8*i:])
	}
	b = b[8*n:]
	for i := 0; i < n; i++ {
		rs[i].Tier = int(int16(uint16(b[2*i]) | uint16(b[2*i+1])<<8))
	}
	b = b[2*n:]
	lookup := func(idx byte) (string, error) {
		if int(idx) >= len(table) {
			return "", fmt.Errorf("wire: string index %d outside table of %d", idx, len(table))
		}
		return table[idx], nil
	}
	var err error
	for i := 0; i < n; i++ {
		if rs[i].Class, err = lookup(b[i]); err != nil {
			return nil, err
		}
	}
	b = b[n:]
	for i := 0; i < n; i++ {
		if rs[i].Source, err = lookup(b[i]); err != nil {
			return nil, err
		}
	}
	b = b[n:]
	bm := b[:bitmapLen(n)]
	b = b[bitmapLen(n):]
	for i := 0; i < n; i++ {
		rs[i].Degraded = bm[i/8]&(1<<(i%8)) != 0
	}
	for i := 0; i < n; i++ {
		if len(b) < 1 {
			return nil, errTruncated
		}
		cnt := int(b[0])
		b = b[1:]
		if len(b) < cnt {
			return nil, errTruncated
		}
		if cnt > 0 {
			rs[i].Missing = make([]string, cnt)
			for j := 0; j < cnt; j++ {
				if rs[i].Missing[j], err = lookup(b[j]); err != nil {
					return nil, err
				}
			}
		}
		b = b[cnt:]
	}
	if version >= VersionIntervals {
		if len(b) < 16*n+bitmapLen(n) {
			return nil, errTruncated
		}
		for i := 0; i < n; i++ {
			rs[i].P10 = readF64(b[8*i:])
		}
		b = b[8*n:]
		for i := 0; i < n; i++ {
			rs[i].P90 = readF64(b[8*i:])
		}
		b = b[8*n:]
		ivm := b[:bitmapLen(n)]
		b = b[bitmapLen(n):]
		for i := 0; i < n; i++ {
			rs[i].HasInterval = ivm[i/8]&(1<<(i%8)) != 0
		}
	} else {
		for i := 0; i < n; i++ {
			rs[i].P10, rs[i].P90 = rs[i].Mbps, rs[i].Mbps
		}
	}
	if len(b) != 0 {
		return nil, errors.New("wire: trailing bytes after response frame")
	}
	return rs, nil
}
