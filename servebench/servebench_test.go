package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

// TestSelftest runs every workload on the small configuration: every
// metric emitted, every correctness check passing, and two same-seed
// runs producing identical request sequences.
func TestSelftest(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three in-process fleets per workload")
	}
	cfg := smallConfig()
	if raceEnabled {
		// The race detector slows every request several-fold; the
		// generator cannot keep the small config's rates on time.
		cfg.maxLateShare, cfg.maxLateP99Ms = 1e6, 1e6
	}
	if err := selftest(io.Discard, t.TempDir(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP x_total help
# TYPE x_total counter
x_total{route="/predict",code="200"} 5
x_total{route="/ingest",code="200"} 2
y_total 1.5e+02
z{tier="L+M",q="a\"b"} 3
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("x_total", nil); got != 7 {
		t.Errorf("sum x_total = %v, want 7", got)
	}
	if got := p.sum("x_total", map[string]string{"route": "/ingest"}); got != 2 {
		t.Errorf("sum x_total{route=/ingest} = %v, want 2", got)
	}
	if got := p.sum("y_total", nil); got != 150 {
		t.Errorf("y_total = %v, want 150", got)
	}
	if got := p.sum("z", map[string]string{"q": `a"b`}); got != 3 {
		t.Errorf("escaped label: got %v, want 3", got)
	}
	later, err := parseProm(strings.NewReader("y_total 160\nw_total 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	d := later.delta(p)
	if d.sum("y_total", nil) != 10 || d.sum("w_total", nil) != 4 {
		t.Errorf("delta: y %v w %v, want 10 and 4", d.sum("y_total", nil), d.sum("w_total", nil))
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	// [10,40) ∪ [90,100) after clipping = 40.
	if got := covered(parent, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	if got := covered(parent, nil); got != 0 {
		t.Errorf("covered(no children) = %d, want 0", got)
	}
}

// TestBenchmarkJSON keeps the metric and workload lists the program
// prints in step with BENCHMARK.json at the repository root.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: program %s/%s, BENCHMARK.json %s/%s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
}
