package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"lumos5g"
	"lumos5g/internal/fleet"
	"lumos5g/internal/ingest"
	"lumos5g/internal/obs"
)

// ingestSchedule drains and refits on a schedule counted in samples,
// never in wall time: every drainEvery samples sent to /ingest it moves
// every replica's queue into its window, and (while refits are on)
// every refitEvery samples it refits the next replica in round-robin
// order on a background goroutine. LocalFleet's hour-long refit
// interval would instead leave the 4096-slot queues full and shed every
// later sample.
type ingestSchedule struct {
	sys        *system
	drainEvery int
	refitEvery int

	drainMu  sync.Mutex
	depthMax int // deepest queue seen before a drain

	mu       sync.Mutex
	cond     *sync.Cond
	refitsOn bool
	pending  int
	stopped  bool
	next     int
	swapped  int
	rejected int
	done     chan struct{}
}

func newIngestSchedule(sys *system, drainEvery, refitEvery int) *ingestSchedule {
	s := &ingestSchedule{sys: sys, drainEvery: drainEvery, refitEvery: refitEvery, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.loop()
	return s
}

// after is the generator hook: local is the request's index among
// /ingest requests, so the samples it carries are known without
// counting responses.
func (s *ingestSchedule) after(local int) {
	before, after := local*ingestBatch, (local+1)*ingestBatch
	if after/s.drainEvery > before/s.drainEvery {
		s.drain()
	}
	if after/s.refitEvery > before/s.refitEvery {
		s.mu.Lock()
		if s.refitsOn {
			s.pending++
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}
}

func (s *ingestSchedule) drain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	for _, rp := range s.sys.replicas {
		s.depthMax = max(s.depthMax, rp.ing.Health().QueueDepth)
		rp.ing.Drain()
	}
}

// counts returns the refits swapped in and rejected so far.
func (s *ingestSchedule) counts() (swapped, rejected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swapped, s.rejected
}

func (s *ingestSchedule) setRefits(on bool) {
	s.mu.Lock()
	s.refitsOn = on
	s.mu.Unlock()
}

func (s *ingestSchedule) loop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for s.pending == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.pending == 0 {
			s.mu.Unlock()
			return
		}
		rp := s.sys.replicas[s.next%len(s.sys.replicas)]
		s.next++
		s.mu.Unlock()

		s.sys.swapEpoch.Add(1)
		res, err := rp.ing.RefitNow(rp.srv)
		s.sys.swapEpoch.Add(1)

		s.mu.Lock()
		s.pending--
		switch {
		case res.Skipped: // the window is always full; not expected
		case res.Swapped && err == nil:
			s.swapped++
		default:
			s.rejected++
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// wait blocks until every refit scheduled so far has finished.
func (s *ingestSchedule) wait() {
	s.mu.Lock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// stop finishes pending refits and joins the refit goroutine.
func (s *ingestSchedule) stop() {
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
}

// prefillWindows fills every replica's refit window with replay samples
// of the cells its shard owns, so each scheduled refit trains on a full
// window from the first one on.
func prefillWindows(sys *system, bodies [][]byte) error {
	var samples []ingest.Sample
	for _, b := range bodies {
		var chunk []ingest.Sample
		if err := json.Unmarshal(b, &chunk); err != nil {
			return fmt.Errorf("decode replay body: %w", err)
		}
		samples = append(samples, chunk...)
	}
	owned := map[string][]ingest.Sample{}
	for _, sm := range samples {
		k := fleet.RouteKey(*sm.Lat, *sm.Lon, nil, nil)
		id := fleet.OwnerID(sys.shardIDs, k.Col, k.Row)
		owned[id] = append(owned[id], sm)
	}
	for _, rp := range sys.replicas {
		if err := fillWindow(rp.ing, owned[rp.shard], sys.cfg.Window); err != nil {
			return fmt.Errorf("replica %s: %w", rp.id, err)
		}
	}
	return nil
}

// fillWindow feeds samples through the ingest gate until the window
// holds want samples.
func fillWindow(ing *ingest.Ingestor, samples []ingest.Sample, want int) error {
	for i := 0; i < len(samples) && ing.Health().WindowSamples < want; i += ingestBatch {
		ing.Ingest(samples[i:min(i+ingestBatch, len(samples))])
		ing.Drain()
	}
	if got := ing.Health().WindowSamples; got < want {
		return fmt.Errorf("only %d of %d window samples available", got, want)
	}
	return nil
}

// chainHolder is a ChainSwapper outside any server, for timing refits
// alone.
type chainHolder struct{ c *lumos5g.FallbackChain }

func (h *chainHolder) Chain() *lumos5g.FallbackChain     { return h.c }
func (h *chainHolder) SetChain(c *lumos5g.FallbackChain) { h.c = c }

// refitTimer times single RefitNow cycles of a private ingestor whose
// window holds exactly the configured window of training-campaign
// samples, so refit_s depends on neither the workload nor the run's
// length.
type refitTimer struct {
	ing *ingest.Ingestor
	h   *chainHolder
}

func newRefitTimer(sys *system) (*refitTimer, error) {
	ing := ingest.New(obs.NewRegistry(), sys.cfg.ingestConfig())
	samples := make([]ingest.Sample, len(sys.campaign.Records))
	for i := range samples {
		samples[i] = ingest.SampleFromRecord(&sys.campaign.Records[i])
	}
	if err := fillWindow(ing, samples, sys.cfg.Window); err != nil {
		return nil, fmt.Errorf("refit window: %w", err)
	}
	return &refitTimer{ing: ing, h: &chainHolder{c: sys.chain}}, nil
}

// once runs one timed refit; a candidate the gate rejects still counts,
// since it trained.
func (t *refitTimer) once() (float64, error) {
	t0 := time.Now()
	res, err := t.ing.RefitNow(t.h)
	d := time.Since(t0).Seconds()
	if res.Skipped || (err != nil && res.Reason != "gate") {
		return 0, fmt.Errorf("refit did not train (skipped=%v): %v", res.Skipped, err)
	}
	return d, nil
}
