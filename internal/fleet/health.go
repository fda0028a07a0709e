package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"lumos5g/internal/par"
)

// Failure detection runs on two clocks. The circuit breaker reacts at
// request speed: a few consecutive failures open it and the router
// stops picking that replica before the prober has even noticed. The
// prober reacts at probe speed: it polls every replica's /healthz,
// downgrades the ones that stop answering, and — because a probe
// success closes the breaker — it is also the recovery path that lets
// a restarted replica back into rotation.

// breaker is a per-replica circuit breaker: consecutive live-traffic
// failures beyond a threshold open it for a cooldown, during which the
// routing rank demotes the replica (demotes — not excludes, so a fleet
// whose breakers are all open still routes rather than refusing).
type breaker struct {
	threshold int32         // consecutive failures to open (default 3)
	cooldown  time.Duration // how long it stays open (default 1s)

	fails     atomic.Int32
	openUntil atomic.Int64 // unix nanos; 0 = closed
}

func (b *breaker) thresholdOr() int32 {
	if b.threshold <= 0 {
		return 3
	}
	return b.threshold
}

func (b *breaker) cooldownOr() time.Duration {
	if b.cooldown <= 0 {
		return time.Second
	}
	return b.cooldown
}

// allow reports whether the breaker is closed (or its cooldown expired).
func (b *breaker) allow() bool {
	until := b.openUntil.Load()
	return until == 0 || time.Now().UnixNano() >= until
}

// success closes the breaker and resets the failure run.
func (b *breaker) success() {
	b.fails.Store(0)
	b.openUntil.Store(0)
}

// failure records one failed attempt, opening the breaker when the
// consecutive-failure run reaches the threshold.
func (b *breaker) failure() {
	if b.fails.Add(1) >= b.thresholdOr() {
		b.openUntil.Store(time.Now().Add(b.cooldownOr()).UnixNano())
	}
}

// healthzBody is the slice of the replica /healthz response the prober
// reads (mapserver's handleHealth writes a superset).
type healthzBody struct {
	OK       bool `json:"ok"`
	Degraded bool `json:"degraded"`
}

// prober polls every replica's /healthz and maintains its state. One
// prober per router; stop() cancels and joins.
type prober struct {
	interval time.Duration
	client   *http.Client
	onProbe  func(r *Replica, ok bool) // metrics hook (may be nil)

	topo func() *Topology // reads the router's current generation

	cancel context.CancelFunc
	done   chan struct{}
}

func startProber(topo func() *Topology, client *http.Client, interval time.Duration, onProbe func(*Replica, bool)) *prober {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &prober{
		interval: interval,
		client:   client,
		onProbe:  onProbe,
		topo:     topo,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	go p.run(ctx)
	return p
}

func (p *prober) stop() {
	p.cancel()
	<-p.done
}

func (p *prober) run(ctx context.Context) {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	// An immediate first sweep so a router that starts against a
	// half-dead fleet learns the real states before the first tick.
	p.sweep(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.sweep(ctx)
		}
	}
}

// sweep probes every replica of the current topology concurrently.
func (p *prober) sweep(ctx context.Context) {
	topo := p.topo()
	if topo == nil {
		return
	}
	reps := topo.replicas()
	par.Do(len(reps), len(reps), func(i int) { p.probe(ctx, reps[i]) })
}

func (p *prober) probe(ctx context.Context, r *Replica) {
	ctx, cancel := context.WithTimeout(ctx, p.interval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL+"/healthz", nil)
	if err != nil {
		p.mark(r, StateDown, false)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.mark(r, StateDown, false)
		return
	}
	defer resp.Body.Close()
	var body healthzBody
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&body) != nil {
		p.mark(r, StateDown, false)
		return
	}
	state := StateHealthy
	if !body.OK || body.Degraded {
		state = StateDegraded
	}
	// A successful probe is proof of life: close the breaker so a
	// restarted replica re-enters rotation without waiting out a
	// cooldown that belonged to its previous life.
	r.bk.success()
	p.mark(r, state, true)
}

func (p *prober) mark(r *Replica, s ReplicaState, ok bool) {
	r.setState(s)
	if p.onProbe != nil {
		p.onProbe(r, ok)
	}
}
