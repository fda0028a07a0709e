// Package fleet is the sharded, replicated serving tier above
// internal/mapserver: a router consistent-hashes each prediction query
// by its quantized map cell (the same engine.Key the prediction cache
// uses, so the partition key and the cache key can never drift apart)
// across N shards, each holding a slice of the throughput map and
// served by R replicas.
//
// The robustness model, in one paragraph: replica health is observed
// two ways (a background prober polling /healthz, and a circuit breaker
// fed by live traffic), routing prefers healthy closed-breaker replicas
// and rotates among equals, single predictions hedge a second attempt
// after a stall and fail over across replicas and then across shards
// until someone answers, and fan-out queries (batch, map-wide) return
// explicit partial results — a dead shard becomes a marked hole in the
// response, never a silent one and never a hang.
package fleet

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

// ReplicaState is the router's current belief about one replica.
type ReplicaState int32

const (
	// StateHealthy: probes succeed, /healthz reports ok and not degraded.
	StateHealthy ReplicaState = iota
	// StateDegraded: the replica answers but reports degraded serving
	// (map-only, reload failures). Routable, but ranked behind healthy.
	StateDegraded
	// StateDown: probes fail. Routed to only as a last resort.
	StateDown
)

func (s ReplicaState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	default:
		return "down"
	}
}

// Replica is one serving process of one shard. The struct is shared
// across topology generations so health and breaker state survive
// membership changes.
type Replica struct {
	ID  string // e.g. "s0r1", unique fleet-wide
	URL string // base URL, e.g. "http://127.0.0.1:43817"

	state atomic.Int32
	bk    breaker
}

// State reads the router's current belief about the replica.
func (r *Replica) State() ReplicaState { return ReplicaState(r.state.Load()) }

func (r *Replica) setState(s ReplicaState) { r.state.Store(int32(s)) }

// Shard is one partition of the key space with its replica set.
type Shard struct {
	ID       string // e.g. "s0"; the rendezvous hash input, so stable
	Replicas []*Replica

	draining atomic.Bool
	rr       atomic.Uint64 // rotation among equally-ranked replicas
}

// SetDraining marks the shard as leaving: it stops receiving new
// routing decisions (rendezvous ranks it last) while in-flight work
// completes. Safe to flip at any time; takes effect immediately.
func (s *Shard) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the shard is being drained.
func (s *Shard) Draining() bool { return s.draining.Load() }

// Topology is one immutable generation of fleet membership. Membership
// change = build a new Topology (reusing Replica/Shard pointers for the
// survivors, so their health state carries over) and atomically swap it
// into the Router.
type Topology struct {
	Shards []*Shard
}

// ShardByID returns the named shard, or nil.
func (t *Topology) ShardByID(id string) *Shard {
	for _, s := range t.Shards {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// RouteKey quantizes one query exactly as the serving path does
// (engine.Quantize): same cell, same speed bucket, same compass sector.
// The fleet partitions on the cell portion only, so every query for one
// map cell — whatever its sensors — lands on the shard that owns that
// cell's slice of the throughput map.
func RouteKey(lat, lon float64, speed, bearing *float64) engine.Key {
	px := geo.Pixelize(geo.LatLon{Lat: lat, Lon: lon}, geo.DefaultZoom)
	return engine.Quantize(px, speed, bearing)
}

// cellScore is the rendezvous (highest-random-weight) score of one
// shard for one map cell. FNV-1a over the shard ID and the cell
// coordinates: deterministic across processes, no coordination, and
// removing a shard only remaps the cells that shard owned.
func cellScore(shardID string, col, row int32) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shardID))
	var b [8]byte
	binary.LittleEndian.PutUint32(b[0:4], uint32(col))
	binary.LittleEndian.PutUint32(b[4:8], uint32(row))
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// OwnerID returns the shard ID owning cell (col, row) among ids —
// the pure partition function, used both by the router (via RankShards)
// and by the supervisor to slice the throughput map before any shard
// exists. ids must be non-empty.
func OwnerID(ids []string, col, row int32) string {
	best, bestScore := ids[0], cellScore(ids[0], col, row)
	for _, id := range ids[1:] {
		if sc := cellScore(id, col, row); sc > bestScore || (sc == bestScore && id < best) {
			best, bestScore = id, sc
		}
	}
	return best
}

// replicas lists every replica of every shard.
func (t *Topology) replicas() []*Replica {
	var reps []*Replica
	for _, sh := range t.Shards {
		reps = append(reps, sh.Replicas...)
	}
	return reps
}

// RankShards orders the topology's shards by routing preference for
// key k: rendezvous score descending, with draining shards moved to
// the back (they answer only if every live shard has failed). The
// first entry is the cell's owner; the rest are the failover order.
func (t *Topology) RankShards(k engine.Key) []*Shard {
	ranked := make([]*Shard, len(t.Shards))
	copy(ranked, t.Shards)
	score := func(s *Shard) uint64 { return cellScore(s.ID, k.Col, k.Row) }
	sort.SliceStable(ranked, func(i, j int) bool {
		di, dj := ranked[i].Draining(), ranked[j].Draining()
		if di != dj {
			return !di
		}
		si, sj := score(ranked[i]), score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].ID < ranked[j].ID
	})
	return ranked
}

// Owner returns the live shard owning key k (nil only for an empty
// topology).
func (t *Topology) Owner(k engine.Key) *Shard {
	ranked := t.RankShards(k)
	if len(ranked) == 0 {
		return nil
	}
	return ranked[0]
}

// candidates orders one shard's replicas by attractiveness: state
// (healthy < degraded < down), then breaker (closed before open), with
// a rotating start among the best so load spreads across equals.
func (s *Shard) candidates() []*Replica {
	n := len(s.Replicas)
	if n == 0 {
		return nil
	}
	// Rotate first so equally-ranked replicas take turns going first;
	// the stable sort then preserves rotation order within each rank.
	start := int(s.rr.Add(1)) % n
	rot := make([]*Replica, 0, n)
	for i := 0; i < n; i++ {
		rot = append(rot, s.Replicas[(start+i)%n])
	}
	rank := func(r *Replica) int {
		rk := int(r.State()) * 2
		if !r.bk.allow() {
			rk++ // open breaker ranks behind a closed one in the same state
		}
		return rk
	}
	sort.SliceStable(rot, func(i, j int) bool { return rank(rot[i]) < rank(rot[j]) })
	return rot
}
