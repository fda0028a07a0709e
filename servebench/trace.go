package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g/internal/wire"
)

// The traced run records spans at the boundaries the benchmark owns:
// the router's listener, each replica's listener, and the router's
// outbound transport. A router span is the parent of the hop spans its
// transport makes (request written until response body closed); a hop
// carries its id to the replica in a header and is the parent of the
// replica span. Nothing inside the program is touched.

// span is one handler invocation. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Layer   string `json:"layer"` // fleet, hop, mapserver or ingest
	Route   string `json:"route"`
	Replica string `json:"replica,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

const (
	parentHeader = "X-Servebench-Span"
	// maxSpans and maxFrames bound what one traced run keeps in memory.
	maxSpans  = 400_000
	maxFrames = 4096
)

type spanKey struct{}

// tracer is off until on is set, so a traced run can measure an
// untraced pass over the same listeners first.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu     sync.Mutex
	spans  []span
	frames [][]byte // router→replica binary batch frames, as sent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// untracedPath reports the scrape and probe routes, which are not part
// of any workload.
func untracedPath(p string) bool { return p == "/metrics" || p == "/healthz" }

// wrapRouter records one fleet span per client request and hands its
// id to the outbound transport through the request context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || untracedPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		id := t.next.Add(1)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{ID: id, Layer: "fleet", Route: r.URL.Path, Start: start, End: t.now()})
	})
}

// wrapReplica records one span per replica request, parented to the
// hop span named in the propagation header.
func (t *tracer) wrapReplica(replica string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || untracedPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		layer := "mapserver"
		if r.URL.Path == "/ingest" {
			layer = "ingest"
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{ID: t.next.Add(1), Parent: parent, Layer: layer, Route: r.URL.Path,
			Replica: replica, Start: start, End: t.now()})
	})
}

// traceTransport is the router's outbound RoundTripper: it records a
// hop span per replica attempt, stamps the hop's id on the request and
// keeps a copy of each binary sub-batch frame for the wire replay.
type traceTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, ok := req.Context().Value(spanKey{}).(uint64)
	if !ok || !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	hop := span{ID: tt.t.next.Add(1), Parent: id, Layer: "hop", Route: req.URL.Path, Replica: req.URL.Host}
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(hop.ID, 10))
	if req.Header.Get("Content-Type") == wire.ContentType && req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			frame, rerr := io.ReadAll(body)
			if rerr == nil {
				tt.t.mu.Lock()
				if len(tt.t.frames) < maxFrames {
					tt.t.frames = append(tt.t.frames, frame)
				}
				tt.t.mu.Unlock()
			}
		}
	}
	hop.Start = tt.t.now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		hop.End = tt.t.now()
		tt.t.record(hop)
		return resp, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, t: tt.t, s: hop}
	return resp, nil
}

// hopBody ends its hop span when the router closes the response body,
// so the span covers reading the whole answer.
type hopBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// snapshot returns the spans and frames recorded so far.
func (t *tracer) snapshot() ([]span, [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([][]byte(nil), t.frames...)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats is what the per-layer report needs from one traced pass.
type spanStats struct {
	fleetSelfUs  []float64 // router span minus the hop spans it covers
	transportUs  []float64 // hop span minus the replica span it covers
	fanout       []float64 // hops (replica sub-requests) per router request
	replicaUs    []float64 // replica handler spans on the primary route
	ingestUs     []float64 // replica /ingest handler spans
	routerSpans  int
	replicaSpans int
}

// analyzeSpans derives self times for router requests on route and
// their hops, and the replica span distribution on replicaRoute. The
// router's self time excludes the hops, so it holds no loopback
// transport or replica-side HTTP framing; those are the hops' own
// time, transportUs.
func analyzeSpans(spans []span, route, replicaRoute string) spanStats {
	children := map[uint64][]span{}
	var st spanStats
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch {
		case s.Layer == "mapserver" && s.Route == replicaRoute:
			st.replicaUs = append(st.replicaUs, float64(s.End-s.Start)/1e3)
			st.replicaSpans++
		case s.Layer == "ingest":
			st.ingestUs = append(st.ingestUs, float64(s.End-s.Start)/1e3)
		}
	}
	for _, s := range spans {
		if s.Layer != "fleet" || s.Route != route {
			continue
		}
		st.routerSpans++
		hops := children[s.ID]
		st.fanout = append(st.fanout, float64(len(hops)))
		st.fleetSelfUs = append(st.fleetSelfUs, float64(s.End-s.Start-covered(s, hops))/1e3)
		for _, h := range hops {
			if reps := children[h.ID]; len(reps) > 0 {
				st.transportUs = append(st.transportUs, float64(h.End-h.Start-covered(h, reps))/1e3)
			}
		}
	}
	return st
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}
