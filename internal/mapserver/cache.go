package mapserver

import (
	"container/list"
	"sync"

	"lumos5g/internal/engine"
	"lumos5g/internal/geo"
)

// The prediction cache memoises /predict answers keyed on the quantized
// query (engine.Key: map cell × speed bucket × compass sector × which
// optional sensors the query carried — the same quantization the fleet
// router partitions on, see internal/engine/key.go).
//
// Concurrency model: an LRU (mutex-guarded map + intrusive list) whose
// entries are filled exactly once. The first goroutine to miss a key
// becomes its leader and computes the prediction outside the lock;
// followers arriving meanwhile find the pending entry and block on its
// ready channel (singleflight — one model walk per key no matter how
// many UEs ask at once). The close of ready happens-after the leader's
// writes, so followers read the response race-free.
//
// Invalidation is wholesale and atomic: the cache lives next to the
// serving chain under the Server's lock, and every model swap
// (SetChain / ReloadModelFile) installs a fresh empty cache, so a
// response computed by an old model can never be served after the swap.
//
// The cache holds no counters of its own. run reports what
// happened as a cacheOutcome and the handler — the single owner of the
// serving counters — records it; only the two events the handler cannot
// see (LRU evictions, leader-abandoned entries) surface through the
// onEvict/onAbandon hooks.

// predKey is the quantized query identity, owned by internal/engine so
// the cache key and the fleet partition key can never drift apart.
type predKey = engine.Key

// bearingSectors mirrors the engine's compass quantization for the edge
// tests in cache_test.go.
const bearingSectors = engine.BearingSectors

// quantizeKey buckets one query (see engine.Quantize).
func quantizeKey(px geo.Pixel, speed, bearing *float64) predKey {
	return engine.Quantize(px, speed, bearing)
}

// cacheOutcome says how a /predict answer was produced, so the handler
// can keep the counting identity responses = Σ tiers_served + hits +
// uncached exact: a miss is the one cached case where the handler also
// published a model walk; a hit served without one; uncached recomputed
// behind an abandoned entry; invalid produced a value with no JSON
// encoding; off means no cache was involved (disabled, or a map-only
// server), so the walk is published like a miss.
type cacheOutcome uint8

const (
	outcomeHit cacheOutcome = iota
	outcomeMiss
	outcomeUncached
	outcomeInvalid
	outcomeOff
)

func (o cacheOutcome) String() string {
	switch o {
	case outcomeHit:
		return "hit"
	case outcomeMiss:
		return "miss"
	case outcomeUncached:
		return "uncached"
	case outcomeOff:
		return "off"
	default:
		return "invalid"
	}
}

// cacheEntry is one memoised prediction. One model walk fills both wire
// forms — the interval-off body (bit-identical to the pre-interval
// format) and the interval body — so a key serves either negotiation
// from the same entry and the cache stays keyed on the quantized query
// alone. ready is closed by the leader after p/body/ibody are written;
// a nil body after ready means the leader failed mid-compute (it
// panicked, or produced a value with no JSON encoding) and the reader
// must compute for itself.
type cacheEntry struct {
	ready chan struct{}
	p     engine.Prediction
	body  []byte // point JSON wire form, newline-terminated
	ibody []byte // interval JSON wire form, newline-terminated
}

type lruItem struct {
	key predKey
	e   *cacheEntry
}

// predCache is the LRU + singleflight store. One instance serves
// exactly one model generation.
type predCache struct {
	cap       int
	onEvict   func() // LRU eviction (may be nil)
	onAbandon func() // leader abandoned a pending entry (may be nil)

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[predKey]*list.Element
}

func newPredCache(capacity int, onEvict, onAbandon func()) *predCache {
	if capacity <= 0 {
		return nil
	}
	return &predCache{
		cap:       capacity,
		onEvict:   onEvict,
		onAbandon: onAbandon,
		ll:        list.New(),
		items:     make(map[predKey]*list.Element, capacity),
	}
}

// len reports the current entry count (tests and /healthz).
func (c *predCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// dropEntry removes key if it still maps to el (the leader's own entry).
func (c *predCache) dropEntry(key predKey, el *list.Element) {
	c.mu.Lock()
	if cur, ok := c.items[key]; ok && cur == el {
		c.ll.Remove(el)
		delete(c.items, key)
	}
	c.mu.Unlock()
}

// computer produces one prediction (with its band) for a cache miss.
// The hot path passes the handler's pooled predictCall so a request
// allocates no per-call closure.
type computer interface {
	computePredict() engine.Prediction
}

// run returns the prediction and wire body for key, computing and
// inserting it (once, whatever the concurrency) on a miss. wantIval
// selects which of the entry's two bodies is returned; the leader
// renders both, so the flavor a key was first asked in never decides
// what later requests can negotiate. A nil body (outcomeInvalid) means
// the computed prediction has no JSON wire form and must not be served.
func (c *predCache) run(key predKey, comp computer, wantIval bool) (engine.Prediction, []byte, cacheOutcome) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruItem).e
		c.mu.Unlock()
		<-e.ready
		if e.body != nil {
			return e.p, e.flavor(wantIval), outcomeHit
		}
		// The leader abandoned the entry; answer uncached.
		p := comp.computePredict()
		body := predictBody(p, wantIval)
		if body == nil {
			return p, nil, outcomeInvalid
		}
		return p, body, outcomeUncached
	}
	e := &cacheEntry{ready: make(chan struct{})}
	el := c.ll.PushFront(&lruItem{key: key, e: e})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
	c.mu.Unlock()

	done := false
	defer func() {
		if !done {
			// compute panicked: drop the entry so followers and future
			// requests recompute, and unblock anyone already waiting.
			c.dropEntry(key, el)
			close(e.ready)
			if c.onAbandon != nil {
				c.onAbandon()
			}
		}
	}()
	p := comp.computePredict()
	body, ibody := predictBody(p, false), predictBody(p, true)
	done = true
	if body == nil {
		// No JSON encoding (both flavours share one finiteness rule):
		// never publish it. Drop the entry so the key stays computable,
		// unblock waiters (they recompute for themselves), and report
		// the abandonment.
		c.dropEntry(key, el)
		close(e.ready)
		if c.onAbandon != nil {
			c.onAbandon()
		}
		return p, nil, outcomeInvalid
	}
	e.p, e.body, e.ibody = p, body, ibody
	close(e.ready)
	return e.p, e.flavor(wantIval), outcomeMiss
}

// flavor returns the body for the negotiated wire form.
func (e *cacheEntry) flavor(wantIval bool) []byte {
	if wantIval {
		return e.ibody
	}
	return e.body
}
