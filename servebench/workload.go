package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"lumos5g"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/env"
	"lumos5g/internal/geo"
	"lumos5g/internal/ingest"
	"lumos5g/internal/rng"
	"lumos5g/internal/sim"
)

// kind is the route a request exercises.
type kind uint8

const (
	kindRead   kind = iota // GET /predict
	kindBatch              // POST /predict/batch?intervals=1 (JSON)
	kindIngest             // POST /ingest (JSON samples)
	numKinds
)

func (k kind) String() string {
	return [...]string{"read", "batch", "ingest"}[k]
}

// request is one generated HTTP request. Its content is a function of
// the workload seed and its index in the sequence only.
type request struct {
	kind   kind
	method string
	path   string // path plus query
	body   []byte
	rows   int // prediction rows (read, batch) or samples (ingest)
	ival   bool
	pt     point // reads: the query as the replica parses it
}

// walker is one virtual UE moving along a city route at walking speed.
// It walks to the route's end and back, so its position is defined for
// any virtual time.
type walker struct {
	fwd, rev env.Trajectory
	length   float64
	frame    geo.Frame
	arc0     float64
	speedKmh float64
	ival     bool // this UE asks for p10/p50/p90
}

func newWalker(src *rng.Source, city *cityscape.City, ivalShare float64) walker {
	trajs := city.Area.Trajectories
	tr := trajs[src.Intn(len(trajs))]
	w := walker{fwd: tr, rev: tr.Reversed(tr.Name + "-rev"), length: tr.Length(), frame: city.Area.Frame}
	w.arc0 = src.Float64() * 2 * w.length
	w.speedKmh = src.Range(3.0, 6.5) // the paper's walking speeds
	w.ival = src.Float64() < ivalShare
	return w
}

// at returns the walker's position, speed and bearing t virtual
// seconds into the run.
func (w *walker) at(t float64) (lat, lon, speed, bearing float64) {
	arc := w.arc0 + w.speedKmh/3.6*t
	tr, s := &w.fwd, arc
	if w.length > 0 {
		s = math.Mod(arc, 2*w.length)
		if s >= w.length {
			tr, s = &w.rev, s-w.length
		}
	}
	ll := w.frame.ToLatLon(tr.At(s))
	return ll.Lat, ll.Lon, w.speedKmh, tr.HeadingAt(s)
}

// workload is one named traffic mix. Slot i of the sequence has kind
// pattern[i % len(pattern)]; each kind keeps its own index so, e.g.,
// the n-th read is the same query whatever the mix around it.
type workload struct {
	name    string
	pattern []kind
	primary kind // the request whose latency is p50_ms/p99_ms
	pace    pacing

	walkers []walker // /predict readers, one query per virtual second
	clients []walker // ABR clients prefetching their next batchRows positions
	bodies  [][]byte // pre-marshaled /ingest bodies, cycled
	bodyOff int

	batchRows int

	rank  []int         // rank of each pattern slot among slots of its kind
	count [numKinds]int // slots of each kind per period
}

func (w *workload) finish() {
	w.rank = make([]int, len(w.pattern))
	for i, k := range w.pattern {
		w.rank[i] = w.count[k]
		w.count[k]++
	}
}

// countsRows reports whether k's completed rows count toward
// rows_per_s: prediction rows on walk and prefetch, accepted samples on
// ingest.
func (w *workload) countsRows(k kind) bool {
	if w.primary == kindIngest {
		return k == kindIngest
	}
	return k != kindIngest
}

// local is slot i's index among the slots of its kind.
func (w *workload) local(i int) int {
	p := len(w.pattern)
	return (i/p)*w.count[w.pattern[i%p]] + w.rank[i%p]
}

// request returns the i-th request of the sequence.
func (w *workload) request(i int) request {
	local := w.local(i)
	switch w.pattern[i%len(w.pattern)] {
	case kindRead:
		return w.read(local)
	case kindBatch:
		return w.batch(local)
	default:
		return w.ingest(local)
	}
}

func (w *workload) read(n int) request {
	u := &w.walkers[n%len(w.walkers)]
	pt := sentPoint(u.at(float64(n / len(w.walkers))))
	b := make([]byte, 0, 96)
	b = append(b, "/predict?lat="...)
	b = strconv.AppendFloat(b, pt.lat, 'f', 7, 64)
	b = append(b, "&lon="...)
	b = strconv.AppendFloat(b, pt.lon, 'f', 7, 64)
	b = append(b, "&speed="...)
	b = strconv.AppendFloat(b, pt.speed, 'f', 2, 64)
	b = append(b, "&bearing="...)
	b = strconv.AppendFloat(b, pt.bearing, 'f', 1, 64)
	if u.ival {
		b = append(b, "&intervals=1"...)
	}
	return request{kind: kindRead, method: "GET", path: string(b), rows: 1, ival: u.ival, pt: pt}
}

// sentPoint rounds a query to the digits the generator sends (7 for
// coordinates, 2 for speed, 1 for bearing), so the point is exactly
// what the server parses.
func sentPoint(lat, lon, speed, bearing float64) point {
	round := func(v float64, prec int) float64 {
		x, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', prec, 64), 64)
		return x
	}
	p := point{lat: round(lat, 7), lon: round(lon, 7), speed: round(speed, 2), bearing: round(bearing, 1)}
	p.px = geo.Pixelize(geo.LatLon{Lat: p.lat, Lon: p.lon}, geo.DefaultZoom)
	return p
}

// batch is one ABR lookahead: the client's next batchRows positions,
// one per virtual second, as a JSON /predict/batch?intervals=1 body.
// Fetch n of a client starts where its fetch n-1 ended, so each fetch
// covers fresh positions, as abrbench's one lookahead per trace does.
func (w *workload) batch(n int) request {
	c := &w.clients[n%len(w.clients)]
	t0 := w.batchStart(n)
	b := make([]byte, 0, w.batchRows*80)
	b = append(b, '[')
	for k := 0; k < w.batchRows; k++ {
		lat, lon, speed, bearing := c.at(t0 + float64(k))
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"lat":`...)
		b = strconv.AppendFloat(b, lat, 'f', 7, 64)
		b = append(b, `,"lon":`...)
		b = strconv.AppendFloat(b, lon, 'f', 7, 64)
		b = append(b, `,"speed":`...)
		b = strconv.AppendFloat(b, speed, 'f', 2, 64)
		b = append(b, `,"bearing":`...)
		b = strconv.AppendFloat(b, bearing, 'f', 1, 64)
		b = append(b, '}')
	}
	b = append(b, ']')
	return request{kind: kindBatch, method: "POST", path: "/predict/batch?intervals=1", body: b,
		rows: w.batchRows, ival: true}
}

func (w *workload) batchStart(n int) float64 {
	return float64(n/len(w.clients)) * float64(w.batchRows)
}

// batchPoint is row k of the n-th batch as the server parses it.
func (w *workload) batchPoint(n, k int) point {
	c := &w.clients[n%len(w.clients)]
	return sentPoint(c.at(w.batchStart(n) + float64(k)))
}

func (w *workload) ingest(n int) request {
	body := w.bodies[(n+w.bodyOff)%len(w.bodies)]
	return request{kind: kindIngest, method: "POST", path: "/ingest", body: body, rows: ingestBatch}
}

// digest hashes requests [from, to) in index order; two runs with the
// same seed must produce the same value.
func (w *workload) digest(from, to int) string {
	h := fnv.New64a()
	for i := from; i < to; i++ {
		r := w.request(i)
		fmt.Fprintf(h, "%d %s %s %d\n", i, r.method, r.path, len(r.body))
		h.Write(r.body)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ingestBatch is the number of samples in one /ingest body.
const ingestBatch = 64

// pacing sets how many sequence slots each phase of a workload sends.
// Every phase is a fixed number of slots, never a wall-clock span, so
// which requests a run sends depends on the seed alone.
type pacing struct {
	Open float64 // open-loop slots per second
	// Closed is the closed-loop slots per second of --seconds: about
	// the closed-loop throughput of the reference machine, so there a
	// closed-loop segment takes its share of --seconds.
	Closed float64
	Warm   int // warm-up slots, sent before anything is measured
}

// workloadConfig sizes the three workloads.
type workloadConfig struct {
	Walkers   int // virtual pedestrians issuing /predict
	Clients   int // virtual ABR clients issuing /predict/batch
	BatchRows int
	ReplayUEs int // UEs in the campaign replayed on /ingest
	// IntervalShare is the share of walkers asking for intervals.
	IntervalShare          float64
	Walk, Prefetch, Ingest pacing
}

var workloadNames = []string{"walk", "prefetch", "ingest"}

// newWorkload builds the named workload's virtual UEs from seed.
func newWorkload(name string, seed uint64, city *cityscape.City, cfg workloadConfig) (*workload, error) {
	root := rng.New(seed).SplitLabeled("servebench/" + name)
	w := &workload{name: name, batchRows: cfg.BatchRows}
	walkers := func() {
		src := root.SplitLabeled("walkers")
		w.walkers = make([]walker, cfg.Walkers)
		for i := range w.walkers {
			w.walkers[i] = newWalker(src.Split(), city, cfg.IntervalShare)
		}
	}
	switch name {
	case "walk":
		w.pattern, w.primary, w.pace = []kind{kindRead}, kindRead, cfg.Walk
		walkers()
	case "prefetch":
		w.pattern, w.primary, w.pace = []kind{kindBatch}, kindBatch, cfg.Prefetch
		src := root.SplitLabeled("clients")
		w.clients = make([]walker, cfg.Clients)
		for i := range w.clients {
			w.clients[i] = newWalker(src.Split(), city, 1)
		}
	case "ingest":
		// internal/load's default route mix puts 70 /predict reads
		// beside every 10 /ingest uploads.
		w.pattern = []kind{kindIngest, kindRead, kindRead, kindRead, kindRead, kindRead, kindRead, kindRead}
		w.primary, w.pace = kindIngest, cfg.Ingest
		walkers()
		bodies, err := replayBodies(city, cfg.ReplayUEs)
		if err != nil {
			return nil, err
		}
		w.bodies = bodies
		w.bodyOff = root.SplitLabeled("bodies").Intn(len(bodies))
	default:
		return nil, fmt.Errorf("unknown workload %q (want walk, prefetch or ingest)", name)
	}
	w.finish()
	return w, nil
}

// replaySeed fixes the uploaded campaign, distinct from the training
// campaign. Like the system, it is the same for every workload seed:
// the share of samples the ingest gate rejects is set by the campaign's
// GPS noise, so a campaign per seed would vary rows_per_s with the seed
// rather than with the server. The workload seed picks where in the
// campaign a run starts.
const replaySeed = systemSeed + 1_000_003

// replayBodies simulates the upload campaign over the city and chunks
// it into /ingest bodies.
func replayBodies(city *cityscape.City, ues int) ([][]byte, error) {
	sc := city.Mixed(ues, replaySeed)
	raw := sim.RunCampaignParallel(sc.Sim, []*env.Area{sc.Area}, 0)
	d, _ := lumos5g.CleanDataset(raw)
	var bodies [][]byte
	for i := 0; i+ingestBatch <= len(d.Records); i += ingestBatch {
		samples := make([]ingest.Sample, ingestBatch)
		for j := range samples {
			samples[j] = ingest.SampleFromRecord(&d.Records[i+j])
		}
		b, err := json.Marshal(samples)
		if err != nil {
			return nil, fmt.Errorf("marshal ingest body: %w", err)
		}
		bodies = append(bodies, b)
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("replay campaign produced fewer than %d samples", ingestBatch)
	}
	return bodies, nil
}
