package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The benchmark's own load generator. Virtual UEs are multiplexed onto
// at most nproc worker goroutines, each owning one keep-alive
// connection. Workers take sequence indices in order from a shared
// counter, so which request is sent next never depends on timing.
//
// Open loop: request k of a phase is due at start + k/rate. A worker
// sleeps until the due time, sends, and the latency is measured from
// the due time, so a stall also charges the requests queued behind it.
// Requests still untaken when the phase's grace period ends are counted
// as never sent, and fail.
//
// Closed loop: workers send a fixed number of slots back to back; the
// phase's wall time is what is measured.

// conn is one worker's HTTP client pinned to a single connection.
type conn struct {
	hc  *http.Client
	buf bytes.Buffer
}

// gen owns the worker connections; chk validates every response.
type gen struct {
	base  string
	conns []*conn
	dials atomic.Int64
	chk   *checker
	// after, when set, runs once per completed request outside its
	// timing (the ingest schedule hangs drains and refits here).
	after func(idx int, req *request)
}

func newGen(base string, workers int, chk *checker) *gen {
	g := &gen{base: base, chk: chk}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	for i := 0; i < workers; i++ {
		tr := &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				g.dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		}
		g.conns = append(g.conns, &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}})
	}
	return g
}

func (g *gen) close() {
	for _, c := range g.conns {
		c.hc.CloseIdleConnections()
	}
}

// phaseStats is one phase's tally, merged across workers.
type phaseStats struct {
	latMs      [numKinds][]float64 // open loop: from due time to response end
	lateMs     []float64           // open loop: wake-up lateness of idle workers
	backlogged int                 // open loop: slots taken after their due time
	attempted  int
	failed     int
	unsent     int
	rows       [numKinds]float64
	counted    float64       // closed loop: rows that count toward rows_per_s
	elapsed    time.Duration // closed loop: wall time of the phase
}

func (p *phaseStats) merge(o *phaseStats) {
	for k := range p.latMs {
		p.latMs[k] = append(p.latMs[k], o.latMs[k]...)
		p.rows[k] += o.rows[k]
	}
	p.lateMs = append(p.lateMs, o.lateMs...)
	p.backlogged += o.backlogged
	p.attempted += o.attempted
	p.failed += o.failed
	p.unsent += o.unsent
	p.counted += o.counted
	p.elapsed += o.elapsed
}

// do sends one request and runs the check. A transport error, a timeout
// and a 429/503 refusal all return ok false. done is when the response
// had been read, before the check ran.
func (g *gen) do(c *conn, idx int, req *request) (rows int, ok bool, done time.Time) {
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, g.base+req.path, body)
	if err != nil {
		return 0, false, time.Now()
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	ep := g.chk.begin(idx, req)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, false, time.Now()
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if rerr != nil {
		return 0, false, done
	}
	rows, ok = g.chk.check(idx, req, resp, c.buf.Bytes(), ep)
	return rows, ok, done
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer wheel wakes an idle process only at millisecond granularity
// (the netpoller's epoll timeout), which would add up to a millisecond
// of generator lateness to every sub-millisecond request; the kernel's
// high-resolution sleep keeps the generator on schedule.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and re-measure
	}
}

// open runs n requests of w starting at sequence index base, due at
// rate per second from now; grace bounds how long after the last due
// time the phase waits for stragglers.
func (g *gen) open(w *workload, base, n int, rate float64, grace time.Duration) phaseStats {
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(time.Duration(float64(n)/rate*1e9) + grace)
	parts := make([]phaseStats, len(g.conns))
	var taken atomic.Int64
	var wg sync.WaitGroup
	for wi, c := range g.conns {
		wg.Add(1)
		go func(st *phaseStats, c *conn) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * 1e9))
				req := w.request(base + k)
				// A worker that took the slot before its due time was
				// idle, so any lateness is the generator's own (a late
				// wake-up). A slot taken after its due time waited for
				// a worker busy on earlier requests: that backlog is
				// the server's, and shows in the latency from due.
				idle := time.Now().Before(due)
				sleepUntil(due)
				sent := time.Now()
				if sent.After(deadline) {
					return
				}
				taken.Add(1)
				rows, ok, done := g.do(c, base+k, &req)
				st.attempted++
				if idle {
					st.lateMs = append(st.lateMs, float64(sent.Sub(due))/1e6)
				} else {
					st.backlogged++
				}
				if ok {
					st.latMs[req.kind] = append(st.latMs[req.kind], float64(done.Sub(due))/1e6)
					st.rows[req.kind] += float64(rows)
				} else {
					st.failed++
				}
				if g.after != nil {
					g.after(base+k, &req)
				}
			}
		}(&parts[wi], c)
	}
	wg.Wait()
	var out phaseStats
	for i := range parts {
		out.merge(&parts[i])
	}
	out.unsent = n - int(taken.Load())
	out.attempted += out.unsent
	out.failed += out.unsent
	return out
}

// count sends sequence slots [0, n) back to back, unmeasured (the
// warm-up).
func (g *gen) count(w *workload, n int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range g.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				req := w.request(k)
				g.do(c, k, &req)
				if g.after != nil {
					g.after(k, &req)
				}
			}
		}(c)
	}
	wg.Wait()
}

// closed sends sequence slots [base, base+n) back to back and times
// them.
func (g *gen) closed(w *workload, base, n int) phaseStats {
	var next atomic.Int64
	parts := make([]phaseStats, len(g.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for wi, c := range g.conns {
		wg.Add(1)
		go func(st *phaseStats, c *conn) {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				req := w.request(base + k)
				rows, ok, _ := g.do(c, base+k, &req)
				if g.after != nil {
					g.after(base+k, &req)
				}
				st.attempted++
				if !ok {
					st.failed++
					continue
				}
				st.rows[req.kind] += float64(rows)
				if w.countsRows(req.kind) {
					st.counted += float64(rows)
				}
			}
		}(&parts[wi], c)
	}
	wg.Wait()
	var out phaseStats
	for i := range parts {
		out.merge(&parts[i])
	}
	out.elapsed = time.Since(start)
	return out
}
