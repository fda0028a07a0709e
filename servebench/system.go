package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lumos5g"
	"lumos5g/internal/cityscape"
	"lumos5g/internal/env"
	"lumos5g/internal/fleet"
	"lumos5g/internal/ingest"
	"lumos5g/internal/mapserver"
	"lumos5g/internal/ml/gbdt"
	"lumos5g/internal/sim"
)

// sysConfig sizes the system under test. The full benchmark uses the
// model and topology lumosfleet ships: the default Scale (200 trees of
// depth 6, calibrated) on 3 shards × 2 replicas.
type sysConfig struct {
	City        cityscape.Config
	CampaignUEs int
	GBDT        gbdt.Config
	Shards      int
	Replicas    int
	// Window is each replica's refit window; refits wait until it is
	// full, so every refit trains on exactly this many samples.
	Window int
}

// systemSeed fixes the city, the training campaign and the model, so
// every workload seed measures the same system.
const systemSeed = 1

// refitConfig is every replica's refit loop. The benchmark drives
// drains and refits itself on a schedule counted in samples, so the
// loop's own timers (ing.Start) are never started.
func (c sysConfig) ingestConfig() ingest.Config {
	return ingest.Config{
		QueueSize:  4096,
		WindowSize: c.Window,
		Refit: ingest.RefitConfig{
			Interval:   time.Hour,
			MinSamples: c.Window,
			Workers:    1,
			Seed:       systemSeed,
		},
	}
}

// replica is one mapserver with its ingest pipeline and listener.
type replica struct {
	id    string
	shard string
	srv   *mapserver.Server
	ing   *ingest.Ingestor
	http  *http.Server
}

// system is one running fleet assembled from public constructors.
type system struct {
	cfg      sysConfig
	city     *cityscape.City
	campaign *lumos5g.Dataset
	tm       *lumos5g.ThroughputMap
	chain    *lumos5g.FallbackChain
	shardIDs []string
	replicas []*replica
	byID     map[string]*replica
	router   *fleet.Router
	hop      *http.Transport // the router's connections to its replicas
	url      string
	front    *http.Server
	serveWG  sync.WaitGroup

	// swapEpoch is odd while a scheduled refit may be swapping a
	// replica's chain; sampled answers that straddle a change are not
	// compared with the engine.
	swapEpoch atomic.Uint64

	simS, trainS, startS float64
}

// buildSystem generates the city, simulates the training campaign,
// trains the chain and starts the fleet on loopback. tr, when non-nil,
// wraps the router and replica listeners and the router's transport.
func buildSystem(cfg sysConfig, tr *tracer) (*system, error) {
	s := &system{cfg: cfg, byID: map[string]*replica{}}

	t0 := time.Now()
	s.city = cityscape.Generate(cfg.City)
	sc := s.city.Mixed(cfg.CampaignUEs, systemSeed)
	raw := sim.RunCampaignParallel(sc.Sim, []*env.Area{sc.Area}, 0)
	s.campaign, _ = lumos5g.CleanDataset(raw)
	if s.campaign.Len() == 0 {
		return nil, fmt.Errorf("campaign over %s produced no clean records", s.city.Config.Name)
	}
	s.tm = lumos5g.BuildThroughputMap(s.campaign, 3)
	t1 := time.Now()
	chain, err := lumos5g.TrainCalibratedFallbackChain(s.campaign, lumos5g.DefaultFallbackGroups,
		lumos5g.ModelGDBT, lumos5g.Scale{GBDT: cfg.GBDT, Seed: systemSeed})
	if err != nil {
		return nil, fmt.Errorf("train chain: %w", err)
	}
	s.chain = chain
	t2 := time.Now()
	if err := s.start(s.tm, tr); err != nil {
		s.close()
		return nil, err
	}
	t3 := time.Now()
	s.simS, s.trainS, s.startS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return s, nil
}

func (s *system) start(tm *lumos5g.ThroughputMap, tr *tracer) error {
	for i := 0; i < s.cfg.Shards; i++ {
		s.shardIDs = append(s.shardIDs, fmt.Sprintf("s%d", i))
	}
	parts := fleet.PartitionMap(tm, s.shardIDs)
	topo := &fleet.Topology{}
	for _, sid := range s.shardIDs {
		sh := &fleet.Shard{ID: sid}
		for j := 0; j < s.cfg.Replicas; j++ {
			ms, err := mapserver.NewWithChain(parts[sid], s.chain, mapserver.WithRequestTimeout(10*time.Second))
			if err != nil {
				return fmt.Errorf("replica %s/%d: %w", sid, j, err)
			}
			ing := ingest.New(ms.Metrics(), s.cfg.ingestConfig())
			ms.AttachIngestor(ing)
			rp := &replica{id: fmt.Sprintf("%sr%d", sid, j), shard: sid, srv: ms, ing: ing}
			var h http.Handler = ms
			if tr != nil {
				h = tr.wrapReplica(rp.id, ms)
			}
			url, err := s.serve(h, &rp.http)
			if err != nil {
				return err
			}
			s.replicas = append(s.replicas, rp)
			s.byID[rp.id] = rp
			sh.Replicas = append(sh.Replicas, &fleet.Replica{ID: rp.id, URL: url})
		}
		topo.Shards = append(topo.Shards, sh)
	}
	s.hop = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
	var rt http.RoundTripper = s.hop
	if tr != nil {
		rt = traceTransport{t: tr, base: s.hop}
	}
	s.router = fleet.NewRouter(topo, fleet.RouterConfig{Client: &http.Client{Transport: rt}, Seed: systemSeed})
	var h http.Handler = s.router
	if tr != nil {
		h = tr.wrapRouter(s.router)
	}
	url, err := s.serve(h, &s.front)
	if err != nil {
		return err
	}
	s.url = url
	return nil
}

// serve binds a loopback listener and serves h on it.
func (s *system) serve(h http.Handler, dst **http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bind loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	*dst = srv
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router's prober and every listener, and waits for
// the serve goroutines to exit. A connection the router dialled but
// never used stays in http.StateNew, which Shutdown waits on for 5 s;
// closing the router's idle connections first and then force-closing
// whatever is left keeps a closed system from lingering (and from
// staying reachable, which would count its heap in the next heap_mb).
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if s.front != nil {
		_ = s.front.Shutdown(ctx)
		_ = s.front.Close()
	}
	if s.router != nil {
		s.router.Close()
	}
	if s.hop != nil {
		s.hop.CloseIdleConnections()
	}
	for _, rp := range s.replicas {
		if rp.http != nil {
			_ = rp.http.Shutdown(ctx)
			_ = rp.http.Close()
		}
	}
	s.serveWG.Wait()
}
