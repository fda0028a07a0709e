package mapserver

import (
	"net/http"
	"sync/atomic"

	"lumos5g/internal/ingest"
	"lumos5g/internal/wire"
)

// POST /ingest wiring: the server always mounts the route so the
// method/size/shed middleware and route-labeled metrics cover it, but
// answers 404 until an Ingestor is attached. The ingest handler shares
// the predict path's shed gate (it is NOT exempt) — under overload the
// server sheds measurement uploads exactly like prediction work, and
// the bounded ingest queue behind the gate adds its own 429
// backpressure — but it never takes the engine lock, so a slow refit
// or a full queue cannot stall a single /predict.

// AttachIngestor wires ing into the server: POST /ingest starts
// admitting samples and /healthz grows an "ingest" section. Call once
// at startup (the pointer swap is atomic, so late attachment under
// traffic is safe too). Pass the server's own Metrics() registry to
// ingest.New so the counters land in this server's /metrics.
func (s *Server) AttachIngestor(ing *ingest.Ingestor) {
	s.ing.Store(ing)
}

// Ingestor returns the attached ingest pipeline, or nil.
func (s *Server) Ingestor() *ingest.Ingestor {
	return s.ing.Load()
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	ing := s.ing.Load()
	if ing == nil {
		wire.WriteError(w, http.StatusNotFound, "ingest not enabled on this server")
		return
	}
	ing.ServeHTTP(w, r)
}

// ingestHealth returns the /healthz ingest section, nil when disabled.
func (s *Server) ingestHealth() *ingest.Health {
	ing := s.ing.Load()
	if ing == nil {
		return nil
	}
	h := ing.Health()
	return &h
}

// ingPtr aliases the atomic holder so Server's struct literal zero
// value stays valid.
type ingPtr = atomic.Pointer[ingest.Ingestor]
