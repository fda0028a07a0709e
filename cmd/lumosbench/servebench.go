package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"lumos5g"
	"lumos5g/internal/features"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/ml/nn"
	"lumos5g/internal/par"
	"lumos5g/internal/wire"
)

// The -servebench mode measures the serving fast path end to end: the
// compiled structure-of-arrays tree kernel against the interpreted
// per-row walk (serial and parallel, with a bit-identity check), the
// compiled LSTM kernel against the interpreted nn forward pass
// (bit-identity), and the HTTP handlers — /predict cold vs cached, JSON batch vs
// the columnar binary frame. It writes the numbers as BENCH_serve.json,
// alongside the pre-kernel handler baseline so the allocation reduction
// is auditable in one file.
//
// -selftest runs the same parity and allocation-budget checks without
// the timing loops, as a tier-1 gate: it exits non-zero if any compiled
// kernel diverges from its interpreted reference, the binary wire
// diverges from JSON, or /predict busts its allocation budget.

// predictAllocBudget is the checked-in per-request allocation budget
// for a cached /predict, measured server-side (reused request, discard
// writer) so harness allocations — recorder, request parsing — do not
// drown the handler's own. The httptest rows remain in the report for
// comparability with the pre-PR baseline, which includes ~17 allocs of
// per-op harness floor.
const predictAllocBudget = 12

// kernelBenchEntry is one model-level timing (fastest of kernelRuns
// runs, so one noisy neighbour does not poison the row).
type kernelBenchEntry struct {
	Name     string  `json:"name"`
	Rows     int     `json:"rows"` // rows predicted per op
	NsPerOp  float64 `json:"ns_per_op"`
	NsPerRow float64 `json:"ns_per_row"`
}

// handlerBenchEntry is one HTTP-handler timing.
type handlerBenchEntry struct {
	Name        string  `json:"name"`
	Queries     int     `json:"queries"` // queries answered per op
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	QPS         float64 `json:"qps"` // queries answered per second
	Note        string  `json:"note,omitempty"`
}

// lstmKernelReport carries the recurrent kernel's parity verdicts.
type lstmKernelReport struct {
	// Identical: the compiled float64 kernel reproduced the interpreted
	// nn forward pass bit for bit on every probe.
	Identical bool `json:"identical"`
}

// serveBenchReport is the BENCH_serve.json schema.
type serveBenchReport struct {
	GeneratedAt string `json:"generated_at"`
	NumCPU      int    `json:"num_cpu"`
	GoMaxProcs  int    `json:"go_max_procs"`
	Seed        uint64 `json:"seed"`
	ModelTrees  int    `json:"model_trees"`
	ModelRows   int    `json:"model_rows"`
	// KernelRuns: each kernel row is the fastest of this many runs.
	KernelRuns int `json:"kernel_runs"`

	Kernel []kernelBenchEntry `json:"kernel"`
	// Identical reports that the compiled tree kernel (single, serial
	// batch, parallel batch) reproduced the interpreted Predict bit for
	// bit.
	Identical bool `json:"identical"`
	// Compiled-vs-interpreted batch speedups at equal parallelism.
	BatchSpeedupSerial   float64 `json:"batch_speedup_serial"`
	BatchSpeedupParallel float64 `json:"batch_speedup_parallel"`

	// LSTM is the compiled recurrent kernel's parity block.
	LSTM lstmKernelReport `json:"lstm"`

	Handlers []handlerBenchEntry `json:"handlers"`
	// PredictAllocBudget is the checked-in budget the server-only
	// cached /predict row is gated on.
	PredictAllocBudget int `json:"predict_alloc_budget"`
	// BinaryBatchMatchesJSON: the binary /predict/batch frame decoded
	// to exactly the JSON rows (and re-encoded byte-identically).
	BinaryBatchMatchesJSON bool `json:"binary_batch_matches_json"`
	// CachedSpeedup is cold /predict ns over cached /predict ns.
	CachedSpeedup float64 `json:"cached_speedup"`
	// PredictP50Ms/PredictP99Ms come from the server's own /predict
	// latency histogram accumulated over the handler benchmarks — the
	// same instrument /metrics exports, so the bench doubles as a check
	// that the observability layer prices requests sanely.
	PredictP50Ms float64 `json:"predict_p50_ms"`
	PredictP99Ms float64 `json:"predict_p99_ms"`
	// BaselinePrePR is the /predict handler before the compiled kernel,
	// cache and allocation work landed, measured with the httptest
	// methodology — the reference for the allocs_per_op reduction.
	BaselinePrePR handlerBenchEntry `json:"baseline_pre_pr"`
}

// prePRPredictBaseline was measured at commit ea13d9f with the
// identical dataset, model, query and httptest.NewRecorder loop used
// below (fastest of three -benchtime 2s runs; allocs and bytes were
// identical across runs).
var prePRPredictBaseline = handlerBenchEntry{
	Name:        "predict_pre_pr",
	Queries:     1,
	NsPerOp:     12687,
	AllocsPerOp: 43,
	BytesPerOp:  8816,
	QPS:         1e9 / 12687,
	Note:        "measured at commit ea13d9f, same httptest methodology",
}

var (
	sinkFloat float64
	sinkSlice []float64
)

// kernelRuns is how many times each kernel benchmark repeats; the
// fastest run is reported (single-CPU VMs jitter ±15%).
const kernelRuns = 3

// fastest runs f kernelRuns times and keeps the lowest ns/op.
func fastest(f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for i := 1; i < kernelRuns; i++ {
		if r := testing.Benchmark(f); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

func kernelEntry(name string, rows int, r testing.BenchmarkResult) kernelBenchEntry {
	ns := float64(r.NsPerOp())
	return kernelBenchEntry{Name: name, Rows: rows, NsPerOp: ns, NsPerRow: ns / float64(rows)}
}

func handlerEntry(name string, queries int, r testing.BenchmarkResult) handlerBenchEntry {
	ns := float64(r.NsPerOp())
	return handlerBenchEntry{
		Name: name, Queries: queries, NsPerOp: ns,
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		QPS: float64(queries) * 1e9 / ns,
	}
}

// discardWriter is the server-only measurement sink: a ResponseWriter
// with no recorder bookkeeping, so allocs/op is the handler's own.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(c int)   { w.code = c }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// benchGet times repeated GET requests against the handler in-process
// (httptest methodology: includes per-op recorder+request setup,
// comparable with the pre-PR baseline).
func benchGet(s http.Handler, url string) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
			if rr.Code != 200 {
				b.Fatalf("%s: %d %s", url, rr.Code, rr.Body.String())
			}
		}
	})
}

// benchGetServerOnly times the same GET with one reused request and a
// discard writer, so the row isolates the server's own work.
func benchGetServerOnly(s http.Handler, url string) testing.BenchmarkResult {
	req := httptest.NewRequest("GET", url, nil)
	w := &discardWriter{h: make(http.Header)}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.code, w.n = 0, 0
			s.ServeHTTP(w, req)
			if w.code != 200 {
				b.Fatalf("%s: status %d", url, w.code)
			}
		}
	})
}

// benchPost times repeated POSTs of the same body with explicit
// Content-Type/Accept media types.
func benchPost(s http.Handler, url string, body []byte, contentType, accept string) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rr := httptest.NewRecorder()
			req := httptest.NewRequest("POST", url, bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			if accept != "" {
				req.Header.Set("Accept", accept)
			}
			s.ServeHTTP(rr, req)
			if rr.Code != 200 {
				b.Fatalf("%s: %d %s", url, rr.Code, rr.Body.String())
			}
		}
	})
}

// fitServeLSTM trains the recurrent reference model and compiles it:
// the interpreted regressor stays as the parity oracle, its compiled
// float64 kernel is what serving runs.
func fitServeLSTM(X [][]float64, y []float64, seed uint64) (*nn.LSTMRegressor, [][][]float64, error) {
	seqs := make([][][]float64, len(X))
	for i, row := range X {
		seqs[i] = [][]float64{row}
	}
	m, err := nn.NewLSTMRegressor(nn.Seq2SeqConfig{
		InputDim: len(X[0]), Hidden: 16, Layers: 1,
		Epochs: 3, Batch: 64, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	if err := m.Fit(seqs, y); err != nil {
		return nil, nil, err
	}
	return m, seqs, nil
}

// lstmParity fills the report block: bit-identity of the compiled
// kernel against the interpreted forward pass over every probe.
func lstmParity(m *nn.LSTMRegressor, seqs [][][]float64) (lstmKernelReport, error) {
	rep := lstmKernelReport{Identical: true}
	k, err := m.Compiled()
	if err != nil {
		return rep, err
	}
	for _, seq := range seqs {
		want, err := m.Predict(seq)
		if err != nil {
			return rep, err
		}
		got, err := k.PredictNext(seq)
		if err != nil {
			return rep, err
		}
		if got != want {
			rep.Identical = false
		}
	}
	return rep, nil
}

// buildBatchBodies renders the same batchN queries as the JSON array
// and the binary frame.
func buildBatchBodies(clean *lumos5g.Dataset, batchN int) ([]byte, []byte, error) {
	wq := make([]wire.Query, batchN)
	for i := range wq {
		rec := clean.Records[i%len(clean.Records)]
		sp, br := 4.0, float64(i%360)
		wq[i] = wire.Query{Lat: rec.Latitude, Lon: rec.Longitude, Speed: &sp, Bearing: &br}
	}
	jsonBody, err := json.Marshal(wq)
	if err != nil {
		return nil, nil, err
	}
	return jsonBody, wire.AppendQueries(nil, wq), nil
}

// checkBinaryBatch posts both encodings once and verifies the binary
// frame carries exactly the JSON rows and re-encodes byte-identically.
func checkBinaryBatch(s http.Handler, jsonBody, binBody []byte, batchN int) (bool, error) {
	post := func(body []byte, ct, accept string) (*httptest.ResponseRecorder, error) {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/predict/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		s.ServeHTTP(rr, req)
		if rr.Code != 200 {
			return nil, fmt.Errorf("batch %s: %d %s", ct, rr.Code, rr.Body.String())
		}
		return rr, nil
	}
	jr, err := post(jsonBody, "application/json", "")
	if err != nil {
		return false, err
	}
	br, err := post(binBody, wire.ContentType, wire.ContentType)
	if err != nil {
		return false, err
	}
	var jsonRows []struct {
		Mbps     float64  `json:"mbps"`
		Class    string   `json:"class"`
		Source   string   `json:"source"`
		Tier     int      `json:"tier"`
		Degraded bool     `json:"degraded"`
		Missing  []string `json:"missing"`
	}
	if err := json.Unmarshal(jr.Body.Bytes(), &jsonRows); err != nil {
		return false, err
	}
	rows, err := wire.DecodeResults(br.Body.Bytes(), batchN)
	if err != nil {
		return false, err
	}
	if len(rows) != len(jsonRows) {
		return false, nil
	}
	for i, r := range rows {
		j := jsonRows[i]
		if r.Mbps != j.Mbps || r.Class != j.Class || r.Source != j.Source ||
			r.Tier != j.Tier || r.Degraded != j.Degraded || len(r.Missing) != len(j.Missing) {
			return false, nil
		}
	}
	again, err := wire.AppendResults(nil, rows)
	if err != nil {
		return false, err
	}
	return bytes.Equal(again, br.Body.Bytes()), nil
}

// runServeBench trains the serving models, benchmarks the inference
// kernels and the HTTP handlers, and writes the JSON report to path.
func runServeBench(path string, seed uint64) error {
	rep := serveBenchReport{
		GeneratedAt:        time.Now().UTC().Format(time.RFC3339),
		NumCPU:             runtime.NumCPU(),
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		Seed:               seed,
		KernelRuns:         kernelRuns,
		PredictAllocBudget: predictAllocBudget,
		BaselinePrePR:      prePRPredictBaseline,
	}

	area, err := lumos5g.AreaByName("Airport")
	if err != nil {
		return err
	}
	cfg := lumos5g.CampaignConfig{Seed: seed, WalkPasses: 6, BackgroundUEProb: 0.1}
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
	mat := features.Build(clean, features.GroupLM)
	m := gbdt.New(gbdt.Config{Estimators: 60, MaxDepth: 6, Seed: seed})
	if err := m.Fit(mat.X, mat.Y); err != nil {
		return fmt.Errorf("servebench: fit: %w", err)
	}
	comp := m.Compiled()
	if comp == nil {
		return fmt.Errorf("servebench: model did not compile")
	}
	X := mat.X
	n := len(X)
	workers := runtime.GOMAXPROCS(0)
	rep.ModelTrees = comp.NumTrees()
	rep.ModelRows = n

	// Bit-identity first: a fast wrong kernel is worthless.
	want := make([]float64, n)
	for i, x := range X {
		want[i] = m.Predict(x)
	}
	rep.Identical = true
	serialOut := make([]float64, n)
	comp.PredictInto(X, serialOut, 0, n)
	parOut := m.PredictBatch(X)
	for i := range X {
		if serialOut[i] != want[i] || parOut[i] != want[i] || comp.Predict(X[i]) != want[i] {
			rep.Identical = false
			break
		}
	}

	// Model-level tree-kernel timings, fastest of kernelRuns each.
	rep.Kernel = append(rep.Kernel, kernelEntry("single_interpreted", 1,
		fastest(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat = m.Predict(X[i%n])
			}
		})))
	rep.Kernel = append(rep.Kernel, kernelEntry("single_compiled", 1,
		fastest(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkFloat = comp.Predict(X[i%n])
			}
		})))
	rBatchInterpSerial := fastest(func(b *testing.B) {
		out := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, x := range X {
				out[j] = m.Predict(x)
			}
		}
		sinkSlice = out
	})
	rep.Kernel = append(rep.Kernel, kernelEntry("batch_interpreted_serial", n, rBatchInterpSerial))
	rBatchCompSerial := fastest(func(b *testing.B) {
		out := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comp.PredictInto(X, out, 0, n)
		}
		sinkSlice = out
	})
	rep.Kernel = append(rep.Kernel, kernelEntry("batch_compiled_serial", n, rBatchCompSerial))
	// The pre-kernel PredictBatch fanned per-row interpreted walks across
	// the worker pool; reconstruct it so the parallel comparison is
	// like for like.
	rBatchInterpPar := fastest(func(b *testing.B) {
		out := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			par.Chunks(workers, n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					out[j] = m.Predict(X[j])
				}
			})
		}
		sinkSlice = out
	})
	rep.Kernel = append(rep.Kernel, kernelEntry("batch_interpreted_parallel", n, rBatchInterpPar))
	rBatchCompPar := fastest(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkSlice = m.PredictBatch(X)
		}
	})
	rep.Kernel = append(rep.Kernel, kernelEntry("batch_compiled_parallel", n, rBatchCompPar))
	rep.BatchSpeedupSerial = float64(rBatchInterpSerial.NsPerOp()) / float64(rBatchCompSerial.NsPerOp())
	rep.BatchSpeedupParallel = float64(rBatchInterpPar.NsPerOp()) / float64(rBatchCompPar.NsPerOp())

	// Recurrent kernel: parity block plus timing rows (the serving
	// sequence form is a length-1 window — the Tabular adapter's shape).
	lstm, seqs, err := fitServeLSTM(X, mat.Y, seed)
	if err != nil {
		return fmt.Errorf("servebench: lstm fit: %w", err)
	}
	rep.LSTM, err = lstmParity(lstm, seqs)
	if err != nil {
		return fmt.Errorf("servebench: lstm parity: %w", err)
	}
	lk, err := lstm.Compiled()
	if err != nil {
		return err
	}
	rep.Kernel = append(rep.Kernel, kernelEntry("lstm_interpreted_single", 1,
		fastest(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sinkFloat, err = lstm.Predict(seqs[i%n]); err != nil {
					b.Fatal(err)
				}
			}
		})))
	rep.Kernel = append(rep.Kernel, kernelEntry("lstm_compiled_single", 1,
		fastest(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sinkFloat, err = lk.PredictNext(seqs[i%n]); err != nil {
					b.Fatal(err)
				}
			}
		})))

	// Handler-level timings: the same single query against a cache-less
	// server (every request walks the model) and the default server
	// (every request after the first is a cache hit).
	tm := lumos5g.BuildThroughputMap(clean, 3)
	pred, err := lumos5g.Train(clean, lumos5g.GroupLM, lumos5g.ModelGDBT, lumos5g.Scale{Seed: seed})
	if err != nil {
		return err
	}
	sCold, err := mapserver.New(tm, pred, mapserver.WithPredictCacheSize(0))
	if err != nil {
		return err
	}
	sCached, err := mapserver.New(tm, pred)
	if err != nil {
		return err
	}
	lat := clean.Records[50].Latitude
	lon := clean.Records[50].Longitude
	url := fmt.Sprintf("/predict?lat=%f&lon=%f&speed=4&bearing=10", lat, lon)

	rCold := benchGet(sCold, url)
	rep.Handlers = append(rep.Handlers, handlerEntry("predict_cold", 1, rCold))
	// One warm-up request fills the cache entry, then every op hits.
	warm := httptest.NewRecorder()
	sCached.ServeHTTP(warm, httptest.NewRequest("GET", url, nil))
	rCached := benchGet(sCached, url)
	rep.Handlers = append(rep.Handlers, handlerEntry("predict_cached", 1, rCached))
	rServer := benchGetServerOnly(sCached, url)
	eServer := handlerEntry("predict_cached_server_only", 1, rServer)
	eServer.Note = fmt.Sprintf("reused request + discard writer; gated on the %d allocs/op budget", predictAllocBudget)
	rep.Handlers = append(rep.Handlers, eServer)
	rep.CachedSpeedup = float64(rCold.NsPerOp()) / float64(rCached.NsPerOp())
	rep.PredictP50Ms = sCached.RouteLatencyQuantile("/predict", 0.5) * 1000
	rep.PredictP99Ms = sCached.RouteLatencyQuantile("/predict", 0.99) * 1000

	// Batch handler: one POST carrying batchN distinct queries (distinct
	// coordinates, so the batch path exercises the kernel, not the
	// cache), in both encodings, with a row-for-row parity check.
	const batchN = 512
	jsonBody, binBody, err := buildBatchBodies(clean, batchN)
	if err != nil {
		return err
	}
	rep.BinaryBatchMatchesJSON, err = checkBinaryBatch(sCold, jsonBody, binBody, batchN)
	if err != nil {
		return err
	}
	rBatch := benchPost(sCold, "/predict/batch", jsonBody, "application/json", "")
	e := handlerEntry("predict_batch", batchN, rBatch)
	e.Note = fmt.Sprintf("%d queries per request, JSON both ways", batchN)
	rep.Handlers = append(rep.Handlers, e)
	rBatchBin := benchPost(sCold, "/predict/batch", binBody, wire.ContentType, wire.ContentType)
	eBin := handlerEntry("predict_batch_binary", batchN, rBatchBin)
	eBin.Note = fmt.Sprintf("%d queries per request, columnar frame both ways (%d B vs %d B JSON request)",
		batchN, len(binBody), len(jsonBody))
	rep.Handlers = append(rep.Handlers, eBin)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	for _, k := range rep.Kernel {
		fmt.Printf("%-27s %9.0f ns/op  %8.1f ns/row\n", k.Name, k.NsPerOp, k.NsPerRow)
	}
	fmt.Printf("batch speedup: %.2fx serial, %.2fx parallel  identical=%t\n",
		rep.BatchSpeedupSerial, rep.BatchSpeedupParallel, rep.Identical)
	fmt.Printf("lstm: identical=%t\n", rep.LSTM.Identical)
	for _, h := range rep.Handlers {
		fmt.Printf("%-27s %9.0f ns/op  %4d allocs/op  %6d B/op  %10.0f q/s\n",
			h.Name, h.NsPerOp, h.AllocsPerOp, h.BytesPerOp, h.QPS)
	}
	fmt.Printf("cached speedup: %.2fx  (pre-PR baseline: %d allocs/op, %.0f ns/op)\n",
		rep.CachedSpeedup, rep.BaselinePrePR.AllocsPerOp, rep.BaselinePrePR.NsPerOp)
	fmt.Printf("binary batch matches json: %t\n", rep.BinaryBatchMatchesJSON)
	fmt.Printf("/predict latency (server histogram): p50 %.3f ms, p99 %.3f ms\n",
		rep.PredictP50Ms, rep.PredictP99Ms)
	fmt.Printf("wrote %s\n", path)

	return serveBenchVerdict(rep.Identical, rep.LSTM, rep.BinaryBatchMatchesJSON, rServer.AllocsPerOp())
}

// serveBenchVerdict turns the parity/budget outcomes into a single
// error (nil = all gates pass), shared by -servebench and -selftest.
func serveBenchVerdict(treeIdentical bool, lstm lstmKernelReport, binaryOK bool, predictAllocs int64) error {
	switch {
	case !treeIdentical:
		return fmt.Errorf("servebench: compiled tree kernel diverged from interpreted Predict")
	case !lstm.Identical:
		return fmt.Errorf("servebench: compiled LSTM kernel diverged from interpreted forward pass")
	case !binaryOK:
		return fmt.Errorf("servebench: binary /predict/batch diverged from the JSON rows")
	case predictAllocs > predictAllocBudget:
		return fmt.Errorf("servebench: cached /predict allocates %d/op, budget %d (server-only methodology)",
			predictAllocs, predictAllocBudget)
	}
	return nil
}

// runServeSelftest is the tier-1 quick gate: the same parity and
// allocation-budget checks as -servebench on a smaller campaign, with
// no timing loops and no report file.
func runServeSelftest(seed uint64) error {
	area, err := lumos5g.AreaByName("Airport")
	if err != nil {
		return err
	}
	cfg := lumos5g.CampaignConfig{Seed: seed, WalkPasses: 3, BackgroundUEProb: 0.1}
	clean, _ := lumos5g.CleanDataset(lumos5g.GenerateArea(area, cfg))
	mat := features.Build(clean, features.GroupLM)
	m := gbdt.New(gbdt.Config{Estimators: 40, MaxDepth: 5, Seed: seed})
	if err := m.Fit(mat.X, mat.Y); err != nil {
		return fmt.Errorf("selftest: fit: %w", err)
	}
	comp := m.Compiled()
	if comp == nil {
		return fmt.Errorf("selftest: model did not compile")
	}
	treeIdentical := true
	batch := m.PredictBatch(mat.X)
	for i, x := range mat.X {
		if w := m.Predict(x); comp.Predict(x) != w || batch[i] != w {
			treeIdentical = false
			break
		}
	}
	fmt.Printf("selftest: tree kernel identical=%t over %d rows\n", treeIdentical, len(mat.X))

	lstmCfg := nn.Seq2SeqConfig{InputDim: len(mat.X[0]), Hidden: 8, Layers: 1, Epochs: 2, Batch: 64, Seed: seed}
	lm, err := nn.NewLSTMRegressor(lstmCfg)
	if err != nil {
		return err
	}
	seqs := make([][][]float64, len(mat.X))
	for i, row := range mat.X {
		seqs[i] = [][]float64{row}
	}
	if err := lm.Fit(seqs, mat.Y); err != nil {
		return fmt.Errorf("selftest: lstm fit: %w", err)
	}
	lstm, err := lstmParity(lm, seqs)
	if err != nil {
		return fmt.Errorf("selftest: lstm parity: %w", err)
	}
	fmt.Printf("selftest: lstm identical=%t\n", lstm.Identical)

	tm := lumos5g.BuildThroughputMap(clean, 3)
	pred, err := lumos5g.Train(clean, lumos5g.GroupLM, lumos5g.ModelGDBT, lumos5g.Scale{Seed: seed})
	if err != nil {
		return err
	}
	s, err := mapserver.New(tm, pred)
	if err != nil {
		return err
	}
	jsonBody, binBody, err := buildBatchBodies(clean, 64)
	if err != nil {
		return err
	}
	binaryOK, err := checkBinaryBatch(s, jsonBody, binBody, 64)
	if err != nil {
		return err
	}
	fmt.Printf("selftest: binary batch matches json=%t\n", binaryOK)

	url := fmt.Sprintf("/predict?lat=%f&lon=%f&speed=4&bearing=10",
		clean.Records[50].Latitude, clean.Records[50].Longitude)
	req := httptest.NewRequest("GET", url, nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		w.code, w.n = 0, 0
		s.ServeHTTP(w, req)
	}
	serve() // warm the cache entry and every pool
	if w.code != 200 {
		return fmt.Errorf("selftest: /predict status %d", w.code)
	}
	allocs := int64(testing.AllocsPerRun(200, serve))
	fmt.Printf("selftest: cached /predict %d allocs/op (budget %d, server-only methodology)\n",
		allocs, predictAllocBudget)

	if err := serveBenchVerdict(treeIdentical, lstm, binaryOK, allocs); err != nil {
		return err
	}
	fmt.Println("selftest: PASS")
	return nil
}
