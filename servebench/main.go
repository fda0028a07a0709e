// Command servebench is the repository's serving benchmark. It builds a
// generated city, simulates a training campaign, trains the calibrated
// fallback chain lumosfleet ships, serves it from an in-process fleet
// (3 shards × 2 replicas behind the router, all on loopback) and drives
// one of three workloads through it with its own load generator:
//
//	walk      thousands of pedestrians, one GET /predict per virtual second
//	prefetch  ABR clients fetching their next 256 positions as one batch
//	ingest    POST /ingest uploads beside /predict reads, with scheduled
//	          drains, refits and hot swaps
//
// Every response is checked; the last line of standard output is one
// JSON object with the run's metrics (end-to-end with --trace 0,
// per-layer with --trace 1). See NOTES.md for what each workload loads.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload walk --seed 1 --seconds 30 --trace 0
//	bash servebench/run.sh --selftest
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"lumos5g/internal/cityscape"
	"lumos5g/internal/engine"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/stats"
)

// benchConfig sizes one benchmark run.
type benchConfig struct {
	sys    sysConfig
	wl     workloadConfig
	setups int // set-ups per run; setup_s is their median
	grace  time.Duration
	// rounds splits a pass into alternating open- and closed-loop
	// segments; rows_per_s and refit_s are medians over rounds.
	rounds      int
	drainEvery  int // /ingest samples between queue drains
	refitEvery  int // /ingest samples between scheduled refits
	sampleEvery uint64
	replayLimit int
	// A run is invalid when its generator, with a worker idle and
	// waiting, sent its requests late: the median lateness above
	// maxLateShare of p50_ms (latency is timed from the due time, so
	// lateness is part of it), or the p99 lateness above maxLateP99Ms.
	maxLateShare float64
	maxLateP99Ms float64
}

func fullConfig() benchConfig {
	return benchConfig{
		sys: sysConfig{
			City:        cityscape.Config{Seed: systemSeed},
			CampaignUEs: 24,
			Shards:      3,
			Replicas:    2,
			Window:      2048,
		},
		wl: workloadConfig{
			Walkers: 2000, Clients: 64, BatchRows: 256, ReplayUEs: 40,
			IntervalShare: 0.2,
			Walk:          pacing{Open: 1000, Closed: 6500, Warm: 64000},
			Prefetch:      pacing{Open: 50, Closed: 270, Warm: 200},
			Ingest:        pacing{Open: 640, Closed: 2100, Warm: 4000},
		},
		setups: 3, grace: 2 * time.Second, rounds: 6,
		drainEvery: 4096, refitEvery: 16384, sampleEvery: 32,
		replayLimit: 4096, maxLateShare: 0.5, maxLateP99Ms: 20,
	}
}

// smallConfig is the self-test: a small city, a small model and short
// phases, exercising every code path in seconds.
func smallConfig() benchConfig {
	c := fullConfig()
	c.sys.City = cityscape.Config{Seed: systemSeed, BlocksX: 3, BlocksY: 2, Routes: 4, RouteBlocks: 3}
	c.sys.CampaignUEs = 8
	c.sys.GBDT = gbdt.Config{Estimators: 20, MaxDepth: 4}
	c.sys.Window = 256
	c.wl = workloadConfig{Walkers: 200, Clients: 8, BatchRows: 32, ReplayUEs: 8,
		IntervalShare: 0.2,
		Walk:          pacing{Open: 300, Closed: 1000, Warm: 2000},
		Prefetch:      pacing{Open: 50, Closed: 200, Warm: 20},
		Ingest:        pacing{Open: 300, Closed: 1000, Warm: 400}}
	c.setups, c.rounds = 1, 2
	c.drainEvery, c.refitEvery, c.sampleEvery = 512, 1024, 4
	c.replayLimit = 512
	return c
}

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"heap_mb", "MB"}, {"p50_ms", "ms"},
	{"rows_per_s", "1/s"}, {"refit_s", "s"}, {"ok_frac", "frac"},
}

// tails are measured and printed on every run but carry no bound: on a
// 2-vCPU guest their run-to-run spread is set by host stalls of several
// milliseconds, not by the program (see NOTES.md).
var tails = []metricDef{{"p99_ms", "ms"}, {"read_p99_ms", "ms"}}

var perLayer = []metricDef{
	{"fleet.self_us", "us"}, {"fleet.transport_us", "us"}, {"fleet.fanout", "count"}, {"fleet.attempts_per_req", "count"},
	{"fleet.hedges", "count"}, {"fleet.failovers", "count"},
	{"mapserver.span_us.p50", "us"}, {"mapserver.span_us.p99", "us"},
	{"mapserver.cache_hit_ratio", "frac"}, {"mapserver.cache_evictions", "count"},
	{"wire.decode_us", "us"}, {"wire.encode_us", "us"},
	{"engine.predict_us", "us"}, {"engine.batch_us_per_row", "us"}, {"engine.allocs_per_row", "count"},
	{"chain.predict_us", "us"},
	{"chain.tier_share.t0", "frac"}, {"chain.tier_share.t1", "frac"}, {"chain.tier_share.t2", "frac"},
	{"chain.tier_share.last", "frac"},
	{"kernel.ns_per_row", "ns"},
	{"ingest.span_us", "us"}, {"ingest.accepted_frac", "frac"}, {"ingest.rejected_frac", "frac"},
	{"ingest.shed_frac", "frac"}, {"ingest.queue_depth_max", "count"},
	{"ingest.refits_swapped", "count"}, {"ingest.refits_rejected", "count"},
	{"setup.sim_s", "s"}, {"setup.train_s", "s"}, {"setup.start_s", "s"},
	{"runtime.gc_cycles", "count"}, {"runtime.allocs_per_op", "count"}, {"process.cpu_us_per_op", "us"},
	{"gen.late_p99_ms", "ms"}, {"gen.conns", "count"},
	{"trace.overhead_p50_ms", "ms"}, {"trace.overhead_p99_ms", "ms"},
	{"trace.overhead_read_p99_ms", "ms"}, {"trace.overhead_rows_per_s", "1/s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOutput is everything one run reports.
type runOutput struct {
	result result
	all    map[string]float64 // every metric computed, both kinds
	digest string             // digest of every request the run sent
	errs   []string
}

// passResult is one measured pass: rounds of an open-loop segment and
// a closed-loop segment, so every metric samples the whole pass rather
// than one stretch of it, with the program's counters and the
// process's resource use across the pass.
type passResult struct {
	open, closed                phaseStats
	rates                       []float64 // closed-loop rows/s, one per round
	refitS                      []float64 // refit_s timings, one per round
	prom                        promSnapshot
	gcCycles                    float64
	mallocs                     float64
	cpuUs                       float64
	offered                     float64
	refitSwapped, refitRejected float64
	from, to                    int // sequence indices used
}

func (p *passResult) ops() float64 {
	return float64(p.open.attempted-p.open.unsent) + float64(p.closed.attempted)
}

type runner struct {
	cfg   benchConfig
	sys   *system
	wl    *workload
	g     *gen
	chk   *checker
	sched *ingestSchedule
	refit *refitTimer // nil in traced runs
	scrap *http.Client
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// pass runs one measured pass from sequence index base. Its segments
// have fixed slot counts, sized from seconds and the workload's pacing,
// so the slots a pass sends do not depend on how fast the server is.
func (r *runner) pass(base int, seconds float64) (passResult, error) {
	p := passResult{from: base}
	before, err := scrapeProm(r.scrap, r.sys.url+"/metrics")
	if err != nil {
		return p, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	off0 := r.chk.offered.Load()
	var sw0, rj0 int
	if r.sched != nil {
		sw0, rj0 = r.sched.counts()
	}
	rounds := float64(r.cfg.rounds)
	nOpen := max(1, int(openShare*seconds*r.wl.pace.Open/rounds))
	nClosed := max(1, int((1-openShare)*seconds*r.wl.pace.Closed/rounds))
	for i := 0; i < r.cfg.rounds; i++ {
		if r.sched != nil {
			r.sched.setRefits(true)
		}
		op := r.g.open(r.wl, base, nOpen, r.wl.pace.Open, r.cfg.grace)
		if r.sched != nil {
			r.sched.setRefits(false)
			r.sched.wait()
		}
		p.open.merge(&op)
		base += nOpen
		if r.refit != nil {
			d, err := r.refit.once()
			if err != nil {
				return p, err
			}
			p.refitS = append(p.refitS, d)
		}
		cl := r.g.closed(r.wl, base, nClosed)
		p.closed.merge(&cl)
		p.rates = append(p.rates, cl.counted/cl.elapsed.Seconds())
		base += nClosed
	}
	p.to = base
	p.cpuUs = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.gcCycles = float64(m1.NumGC - m0.NumGC)
	p.mallocs = float64(m1.Mallocs - m0.Mallocs)
	p.offered = float64(r.chk.offered.Load() - off0)
	if r.sched != nil {
		sw, rj := r.sched.counts()
		p.refitSwapped, p.refitRejected = float64(sw-sw0), float64(rj-rj0)
	}
	after, err := scrapeProm(r.scrap, r.sys.url+"/metrics")
	if err != nil {
		return p, err
	}
	p.prom = after.delta(before)
	return p, nil
}

// openShare is the share of --seconds given to open-loop segments; the
// rest goes to closed-loop segments.
const openShare = 0.6

// endToEnd derives the user-visible metrics of one pass.
func (r *runner) endToEnd(p *passResult) map[string]float64 {
	prim := p.open.latMs[r.wl.primary]
	att := float64(p.open.attempted + p.closed.attempted)
	out := map[string]float64{
		"p50_ms":      stats.Quantile(prim, 0.50),
		"p99_ms":      stats.Quantile(prim, 0.99),
		"read_p99_ms": 0, // prefetch sends no reads
		"rows_per_s":  stats.Median(p.rates),
		"ok_frac":     1 - ratio(float64(p.open.failed+p.closed.failed), att),
	}
	if reads := p.open.latMs[kindRead]; len(reads) > 0 {
		out["read_p99_ms"] = stats.Quantile(reads, 0.99)
	}
	return out
}

// counters derives the per-layer figures the program's own /metrics
// counters give for one pass.
func (r *runner) counters(p *passResult, out map[string]float64) {
	d := p.prom
	var reqs float64
	for _, route := range []string{"/predict", "/predict/batch", "/ingest"} {
		reqs += d.sum("fleet_http_requests_total", map[string]string{"route": route})
	}
	out["fleet.attempts_per_req"] = ratio(d.sum("fleet_attempts_total", nil), reqs)
	out["fleet.hedges"] = d.sum("fleet_hedges_total", nil)
	out["fleet.failovers"] = d.sum("fleet_failovers_total", nil)
	hits := d.sum("lumos_predict_cache_hits_total", nil)
	lookups := hits + d.sum("lumos_predict_cache_misses_total", nil) + d.sum("lumos_predict_cache_uncached_total", nil)
	out["mapserver.cache_hit_ratio"] = ratio(hits, lookups)
	out["mapserver.cache_evictions"] = d.sum("lumos_predict_cache_evictions_total", nil)

	// Tier shares by the shipped chain's tier order; refit chains serve
	// a subset of the same labels.
	names := r.sys.chain.TierNames()
	served := d.sum("lumos_predict_tier_served_total", nil)
	for i := 0; i < 3; i++ {
		v := 0.0
		if i < len(names)-1 {
			v = ratio(d.sum("lumos_predict_tier_served_total", map[string]string{"tier": names[i]}), served)
		}
		out[fmt.Sprintf("chain.tier_share.t%d", i)] = v
	}
	out["chain.tier_share.last"] = ratio(d.sum("lumos_predict_tier_served_total",
		map[string]string{"tier": names[len(names)-1]}), served)

	acc := d.sum("lumos_ingest_accepted_total", nil)
	rej := d.sum("lumos_ingest_rejected_total", nil)
	shed := d.sum("lumos_ingest_shed_total", nil)
	out["ingest.accepted_frac"] = ratio(acc, p.offered)
	out["ingest.rejected_frac"] = ratio(rej, p.offered)
	out["ingest.shed_frac"] = ratio(shed, p.offered)
	out["ingest.refits_swapped"] = p.refitSwapped
	out["ingest.refits_rejected"] = p.refitRejected
	if r.sched != nil {
		r.sched.drainMu.Lock()
		out["ingest.queue_depth_max"] = float64(r.sched.depthMax)
		r.sched.drainMu.Unlock()
	} else {
		out["ingest.queue_depth_max"] = 0
	}
	if acc+rej+shed != p.offered {
		r.chk.fail("ingest accounting: accepted %v + rejected %v + shed %v != offered %v", acc, rej, shed, p.offered)
	}

	ops := p.ops()
	out["runtime.gc_cycles"] = p.gcCycles
	out["runtime.allocs_per_op"] = ratio(p.mallocs, ops)
	out["process.cpu_us_per_op"] = ratio(p.cpuUs, ops)
	out["gen.late_p99_ms"] = stats.Quantile(p.open.lateMs, 0.99)
	out["gen.late_p50_ms"] = stats.Quantile(p.open.lateMs, 0.50)
	out["gen.backlogged_frac"] = ratio(float64(p.open.backlogged), float64(p.open.attempted))
	out["gen.conns"] = float64(r.g.dials.Load())
	out["gen.open_samples"] = float64(len(p.open.latMs[r.wl.primary]))
	out["gen.read_samples"] = float64(len(p.open.latMs[kindRead]))
}

// primaryRoutes names the router route of the workload's primary
// request and the replica route whose spans mapserver.span_us reports.
func primaryRoutes(w *workload) (router, replica string) {
	switch w.primary {
	case kindBatch:
		return "/predict/batch", "/predict/batch"
	case kindIngest:
		return "/ingest", "/predict"
	default:
		return "/predict", "/predict"
	}
}

// setUp builds the system cfg.setups times and keeps the last; only
// the last is traced. setup_s and its parts are the medians.
func setUp(cfg benchConfig, tr *tracer, all map[string]float64, log io.Writer) (*system, error) {
	var totals, sims, trains, starts []float64
	var sys *system
	for k := 0; k < cfg.setups; k++ {
		t0 := time.Now()
		var t *tracer
		if k == cfg.setups-1 {
			t = tr
		}
		s, err := buildSystem(cfg.sys, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		totals = append(totals, time.Since(t0).Seconds())
		sims, trains, starts = append(sims, s.simS), append(trains, s.trainS), append(starts, s.startS)
		if k < cfg.setups-1 {
			s.close()
		} else {
			sys = s
		}
	}
	all["setup_s"], all["setup.sim_s"], all["setup.train_s"], all["setup.start_s"] =
		stats.Median(totals), stats.Median(sims), stats.Median(trains), stats.Median(starts)
	fmt.Fprintf(log, "setup: %d runs, median %.3f s (sim %.3f, train %.3f, start %.3f); campaign %d records, chain %s\n",
		len(totals), all["setup_s"], all["setup.sim_s"], all["setup.train_s"], all["setup.start_s"],
		sys.campaign.Len(), sys.chain)
	return sys, nil
}

// runBench runs one workload: set-up, warm-up, one measured pass (two
// when traced: untraced, then traced), then the checks, and for a
// traced run the span analysis and layer replays.
func runBench(cfg benchConfig, name string, seed uint64, seconds float64, traced bool, spansDir string, log io.Writer) (*runOutput, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	all := map[string]float64{}
	sys, err := setUp(cfg, tr, all, log)
	if err != nil {
		return nil, err
	}
	closed := false
	closeSys := func() {
		if !closed {
			closed = true
			sys.close()
		}
	}
	defer closeSys()

	wl, err := newWorkload(name, seed, sys.city, cfg.wl)
	if err != nil {
		return nil, err
	}
	chk := &checker{sys: sys, wl: wl, seed: seed, sampleEvery: cfg.sampleEvery, byKey: map[engine.Key]*keyHist{}}
	r := &runner{cfg: cfg, sys: sys, wl: wl, chk: chk, g: newGen(sys.url, runtime.NumCPU(), chk),
		scrap: &http.Client{Timeout: 10 * time.Second}}
	defer r.g.close()
	if !traced {
		if r.refit, err = newRefitTimer(sys); err != nil {
			return nil, err
		}
	}
	if wl.primary == kindIngest {
		if err := prefillWindows(sys, wl.bodies); err != nil {
			return nil, err
		}
		r.sched = newIngestSchedule(sys, cfg.drainEvery, cfg.refitEvery)
		defer r.sched.stop()
		r.g.after = func(idx int, req *request) {
			if req.kind == kindIngest {
				r.sched.after(wl.local(idx))
			}
		}
	}

	// Warm-up, not measured: a fixed number of slots sent closed-loop,
	// enough for the replica caches to reach their steady hit ratio, so
	// the measured requests see the same cache state however fast the
	// server is.
	nWarm := wl.pace.Warm
	r.g.count(wl, nWarm)
	all["heap_mb"] = liveHeapMB()

	base := nWarm
	nPasses := 1
	if traced {
		nPasses = 2
	}
	var passes []passResult
	for i := 0; i < nPasses; i++ {
		if tr != nil {
			tr.on.Store(i == 1)
		}
		p, err := r.pass(base, seconds/float64(nPasses))
		if err != nil {
			return nil, err
		}
		base = p.to
		passes = append(passes, p)
	}
	if tr != nil {
		tr.on.Store(false)
	}
	last := &passes[len(passes)-1]
	for k, v := range r.endToEnd(last) {
		all[k] = v
	}
	r.counters(last, all)
	fmt.Fprintf(log, "rounds: rows/s %.0f, refit s %.3f\n", last.rates, last.refitS)
	attempted, failed := 0, 0
	for _, p := range passes {
		attempted += p.open.attempted + p.closed.attempted
		failed += p.open.failed + p.closed.failed
	}
	if r.sched != nil {
		r.sched.stop()
	}

	if traced {
		un := r.endToEnd(&passes[0])
		for _, k := range []string{"p50_ms", "p99_ms", "read_p99_ms", "rows_per_s"} {
			all["trace.overhead_"+k] = all[k] - un[k]
		}
		if err := r.layers(tr, last, all, spansDir, log, closeSys); err != nil {
			return nil, err
		}
	} else {
		all["refit_s"] = stats.Median(last.refitS)
		closeSys()
	}

	// Every phase sends a fixed number of slots, so the whole sequence
	// sent, warm-up included, is a function of the seed.
	out := &runOutput{all: all, digest: wl.digest(0, base)}
	if late, lim := all["gen.late_p50_ms"], cfg.maxLateShare*all["p50_ms"]; late > lim {
		r.chk.fail("generator ran late: median %.3f ms after due, over %.0f%% of p50_ms (%.3f ms)",
			late, 100*cfg.maxLateShare, lim)
	}
	if late := all["gen.late_p99_ms"]; late > cfg.maxLateP99Ms {
		r.chk.fail("generator ran late: p99 %.2f ms after due (limit %.0f ms)", late, cfg.maxLateP99Ms)
	}
	if wl.primary != kindIngest && r.chk.verified.Load() == 0 {
		r.chk.fail("no sampled prediction was verified against its replica's engine")
	}
	nBad, errs := r.chk.failures()
	out.errs = errs
	if e := r.chk.firstError(); e != "" {
		fmt.Fprintf(log, "first failed request: %s\n", e)
	}
	all["check.verified"] = float64(r.chk.verified.Load())
	all["check.skipped"] = float64(r.chk.skipped.Load())
	all["fail_frac"] = 1 - all["ok_frac"]

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out.result = result{Correct: nBad == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := all[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out.result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// layers derives the per-layer figures of a traced pass: self times
// from the spans (also written to spansDir), then, with the fleet shut
// down, replays of the pass's inputs through each layer.
func (r *runner) layers(tr *tracer, p *passResult, all map[string]float64, spansDir string, log io.Writer, closeSys func()) error {
	spans, frames := tr.snapshot()
	route, repRoute := primaryRoutes(r.wl)
	st := analyzeSpans(spans, route, repRoute)
	all["fleet.self_us"] = stats.Median(st.fleetSelfUs)
	all["fleet.transport_us"] = stats.Median(st.transportUs)
	all["fleet.fanout"] = stats.Mean(st.fanout)
	all["mapserver.span_us.p50"] = stats.Quantile(st.replicaUs, 0.50)
	all["mapserver.span_us.p99"] = stats.Quantile(st.replicaUs, 0.99)
	all["ingest.span_us"] = 0
	if len(st.ingestUs) > 0 {
		all["ingest.span_us"] = stats.Median(st.ingestUs)
	}
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", r.wl.name, r.chk.seed))
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "trace: %d spans (%d router, %d replica on %s) written to %s\n",
		len(spans), st.routerSpans, st.replicaSpans, repRoute, path)

	points := missQueries(r.wl, p.from, p.to, r.cfg.replayLimit)
	closeSys()
	eng, err := engine.New(r.sys.tm, r.sys.chain)
	if err != nil {
		return err
	}
	rep, err := replayLayers(eng, r.sys.chain, points, frames, r.cfg.wl.BatchRows)
	if err != nil {
		return err
	}
	all["engine.predict_us"], all["chain.predict_us"] = rep.enginePredictUs, rep.chainPredictUs
	all["engine.batch_us_per_row"], all["engine.allocs_per_row"] = rep.batchUsPerRow, rep.allocsPerRow
	all["kernel.ns_per_row"] = rep.kernelNsPerRow
	all["wire.decode_us"], all["wire.encode_us"] = rep.wireDecodeUs, rep.wireEncodeUs
	fmt.Fprintf(log, "replay: %d miss queries, %d wire frames, %d batch rows\n", len(points), rep.frames, rep.rows)
	return nil
}

// liveHeapMB is the live heap after a forced GC: the least of three
// readings, since goroutines still running (the router's health
// prober, idle connections) can only add to a reading.
func liveHeapMB() float64 {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		best = math.Min(best, float64(ms.HeapAlloc)/(1<<20))
	}
	return best
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stamp identifies the machine, toolchain, code and seed of a result.
func stamp(name string, seed uint64, seconds float64, traced bool) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	sha := os.Getenv("SERVEBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "git_sha": sha,
	}
}

func printJSONLine(w io.Writer, prefix string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, "%s marshal error: %v\n", prefix, err)
		return
	}
	if prefix != "" {
		fmt.Fprintf(w, "%s %s\n", prefix, b)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// report prints the human-readable lines, the stamp and detail lines,
// and finally the result object.
func report(w io.Writer, out *runOutput, st map[string]any) {
	printJSONLine(w, "stamp", st)
	names := make([]string, 0, len(out.result.Metrics))
	for k := range out.result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.result.Metrics[k]
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, d := range tails {
		fmt.Fprintf(w, "  %-30s %14.6g %s (tail, no bound)\n", d.name, out.all[d.name], d.unit)
	}
	fmt.Fprintf(w, "samples: %v primary open-loop requests, %v reads; generator late p99 %.3f ms; cache hit ratio %.3f; sequence digest %s\n",
		out.all["gen.open_samples"], out.all["gen.read_samples"], out.all["gen.late_p99_ms"],
		out.all["mapserver.cache_hit_ratio"], out.digest)
	fmt.Fprintln(w, "note: runtime.* and process.* figures are process-wide and include the load generator")
	for _, e := range out.errs {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	printJSONLine(w, "detail", out.all)
	printJSONLine(w, "", out.result)
}

func main() {
	name := flag.String("workload", "walk", "workload: walk, prefetch or ingest")
	seed := flag.Uint64("seed", 1, "workload seed: drives every generated request")
	seconds := flag.Float64("seconds", 30, "measured seconds (open-loop then closed-loop phase)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spansDir := flag.String("spans-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	self := flag.Bool("selftest", false, "run the fast self-test and exit")
	flag.Parse()

	if *self {
		if err := selftest(os.Stdout, *spansDir, smallConfig()); err != nil {
			fmt.Fprintln(os.Stderr, "servebench selftest:", err)
			os.Exit(1)
		}
		fmt.Println("servebench selftest: ok")
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "servebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "servebench: --seconds must be positive")
		os.Exit(2)
	}
	fmt.Printf("servebench: workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	out, err := runBench(fullConfig(), *name, *seed, *seconds, *trace == 1, *spansDir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	report(os.Stdout, out, stamp(*name, *seed, *seconds, *trace == 1))
	if !out.result.Correct {
		os.Exit(1)
	}
}

// selftest runs every workload on the small configuration: twice
// untraced with one seed (the two request sequences must hash alike)
// and once traced, asserting that every metric is emitted and every
// check passes.
func selftest(log io.Writer, spansDir string, cfg benchConfig) error {
	for _, name := range workloadNames {
		var digests []string
		for i, traced := range []bool{false, false, true} {
			out, err := runBench(cfg, name, 7, 1.5, traced, spansDir, log)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			if !out.result.Correct {
				return fmt.Errorf("%s run %d: checks failed: %v", name, i, out.errs)
			}
			if out.result.Attempted < 1 || out.result.Failed != 0 {
				return fmt.Errorf("%s run %d: attempted %d, failed %d", name, i, out.result.Attempted, out.result.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.result.Metrics) != len(defs) {
				return fmt.Errorf("%s run %d: %d metrics, want %d", name, i, len(out.result.Metrics), len(defs))
			}
			if !traced {
				digests = append(digests, out.digest)
			}
			fmt.Fprintf(log, "selftest %s run %d: ok (%d requests, digest %s)\n", name, i, out.result.Attempted, out.digest)
		}
		if digests[0] != digests[1] {
			return fmt.Errorf("%s: same seed, different request sequences: %s vs %s", name, digests[0], digests[1])
		}
	}
	return checkSeedsDiffer(cfg)
}

// checkSeedsDiffer guards the digest itself: another seed must change
// every workload's sequence.
func checkSeedsDiffer(cfg benchConfig) error {
	city := cityscape.Generate(cfg.sys.City)
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7, city, cfg.wl)
		if err != nil {
			return err
		}
		b, err := newWorkload(name, 8, city, cfg.wl)
		if err != nil {
			return err
		}
		if a.digest(0, 64) == b.digest(0, 64) {
			return errors.New(name + ": seeds 7 and 8 produced the same requests")
		}
	}
	return nil
}
