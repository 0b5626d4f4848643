package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"tegrecon/internal/store"
)

// cache is the content-addressed result store: completed response
// payloads keyed by the canonical request hash (canonical.go), bounded
// by an LRU over both entry count and resident bytes — tick-bearing
// payloads can reach tens of MB each, so an entry bound alone would
// let a handful of large results defeat the server's bounded-memory
// design. Payloads are the exact bytes previously sent to a client, so
// a hit is byte-identical to the original response by construction —
// under DeterministicRuntime the physics is bit-reproducible, which
// makes serving the stored bytes equivalent to recomputing them.
//
// An optional disk tier (internal/store) sits behind the memory LRU:
// gets fall through to disk before reporting a miss (promoting what
// they find), so payloads survive a process restart and are shared by
// every process on the same store directory. Whole-request payloads
// (put) are written to disk before put returns: a cross-process lock
// follower polls the store for them. Matrix cells (putBehind) are
// written behind the response by one writer goroutine draining a
// bounded queue; a queued cell stays readable from the queue until it
// is on disk, and flush (Serve's last step) writes out whatever is
// left. The disk tier persists even when the memory tier is disabled.
type cache struct {
	mu       sync.Mutex
	max      int
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used
	entries  map[string]*list.Element

	disk *store.Store // optional second tier (nil → memory only)

	// The write-behind queue: wq holds keys in arrival order, pending
	// their payloads until the store has them (the key being written
	// included), writer is non-nil while the writer goroutine runs and
	// is closed when it exits, and flushed turns putBehind into put.
	wmu     sync.Mutex
	wq      chan string
	pending map[string][]byte
	writer  chan struct{}
	flushed bool

	hits          atomic.Int64
	misses        atomic.Int64
	diskHits      atomic.Int64 // hits answered by the disk tier
	diskPutErrors atomic.Int64 // disk-tier Put errors, queued or not (disk full, perms, oversize)
	inlineWrites  atomic.Int64 // putBehind writes done by the caller because the queue was full
}

// writeBehindCap bounds the write-behind queue. A matrix cell is about
// a kilobyte, so a full queue holds a few hundred KB; a fill that finds
// it full writes inline instead, which drops nothing and throttles the
// producer to the disk's pace.
const writeBehindCap = 256

type cacheEntry struct {
	key     string
	payload []byte
}

func newCache(maxEntries int, maxBytes int64, disk *store.Store) *cache {
	return &cache{
		max:      maxEntries,
		maxBytes: maxBytes,
		order:    list.New(),
		entries:  make(map[string]*list.Element, maxEntries),
		disk:     disk,
		wq:       make(chan string, writeBehindCap),
		pending:  make(map[string][]byte),
	}
}

// get returns the stored payload and marks the entry most recently
// used, falling through to the disk tier on a memory miss (a disk hit
// is promoted into memory and counts as a client-visible hit — this is
// how a cold-restarted server answers with X-Cache: hit and zero
// recomputation). Callers must treat the payload as immutable.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		payload := el.Value.(*cacheEntry).payload
		c.mu.Unlock()
		c.hits.Add(1)
		return payload, true
	}
	c.mu.Unlock()
	if b, ok := c.queued(key); ok {
		c.hits.Add(1)
		c.memPut(key, b)
		return b, true
	}
	if c.disk != nil {
		if b, ok := c.disk.Get(key); ok {
			c.hits.Add(1)
			c.diskHits.Add(1)
			c.memPut(key, b)
			return b, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// peek is get without touching the hit/miss statistics or the memory
// LRU order — the flight leader's internal race re-check and the
// matrix cell-recall probe, invisible to the client-facing accounting.
// A disk-tier find is returned without promotion: matrix recall peeks
// thousands of small cells and must not churn the memory LRU.
func (c *cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		payload := el.Value.(*cacheEntry).payload
		c.mu.Unlock()
		return payload, true
	}
	c.mu.Unlock()
	if b, ok := c.queued(key); ok {
		return b, true
	}
	if c.disk != nil {
		return c.disk.Get(key)
	}
	return nil, false
}

// has reports residency in either tier without reading any payload —
// the cell-status probe for matrix listings, where peek would pay a
// disk read per cell just to learn a boolean.
func (c *cache) has(key string) bool {
	c.mu.Lock()
	_, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return true
	}
	if _, ok := c.queued(key); ok {
		return true
	}
	return c.disk != nil && c.disk.Has(key)
}

// put stores a payload in the memory tier and writes it to the disk
// tier before returning. The tiers admit independently: an oversized
// or memory-disabled payload can still persist to disk (and a
// disk-full error never evicts the memory entry).
func (c *cache) put(key string, payload []byte) {
	c.memPut(key, payload)
	c.diskPut(key, payload)
}

// diskPut writes one payload to the disk tier, outside every cache
// mutex: an fsync must never stall concurrent cache reads.
func (c *cache) diskPut(key string, payload []byte) {
	if c.disk == nil {
		return
	}
	if err := c.disk.Put(key, payload); err != nil {
		c.diskPutErrors.Add(1)
	}
}

// putBehind stores a payload in the memory tier and queues its disk
// write for the writer goroutine, starting one if none runs. A full
// queue makes the caller write inline; after flush every write is
// inline. Same key means same bytes, so a key already queued is not
// queued twice.
func (c *cache) putBehind(key string, payload []byte) {
	c.memPut(key, payload)
	if c.disk == nil {
		return
	}
	c.wmu.Lock()
	if _, ok := c.pending[key]; ok {
		c.wmu.Unlock()
		return
	}
	if c.flushed || len(c.pending) >= writeBehindCap {
		full := !c.flushed
		c.wmu.Unlock()
		if full {
			c.inlineWrites.Add(1)
		}
		c.diskPut(key, payload)
		return
	}
	c.pending[key] = payload
	c.wq <- key // never blocks: len(wq) <= len(pending) < cap(wq)
	if c.writer == nil {
		c.writer = make(chan struct{})
		go c.writeBehind(c.writer)
	}
	c.wmu.Unlock()
}

// writeBehind drains the queue in arrival order and exits when it is
// empty, so an idle cache holds no goroutine. A key leaves pending
// only once the store has it, so readers never see it on neither tier.
func (c *cache) writeBehind(done chan struct{}) {
	for {
		c.wmu.Lock()
		var key string
		select {
		case key = <-c.wq:
		default:
			c.writer = nil
			c.wmu.Unlock()
			close(done)
			return
		}
		payload := c.pending[key]
		c.wmu.Unlock()
		c.diskPut(key, payload)
		c.wmu.Lock()
		delete(c.pending, key)
		c.wmu.Unlock()
	}
}

// queued returns a payload still waiting in the write-behind queue.
func (c *cache) queued(key string) ([]byte, bool) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	b, ok := c.pending[key]
	return b, ok
}

// queuedLen reports the payloads not yet on disk (the write-behind
// gauge).
func (c *cache) queuedLen() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return len(c.pending)
}

// flush waits until every queued write is on disk and makes later
// putBehind calls write inline, so no write outlives the caller — the
// guarantee Serve gives once the HTTP server has shut down.
func (c *cache) flush() {
	c.wmu.Lock()
	c.flushed = true
	done := c.writer
	c.wmu.Unlock()
	if done != nil {
		<-done
	}
}

// memPut is the memory-tier admission: store the payload, then evict
// from the LRU tail while either bound (entries or bytes) is exceeded.
// A payload larger than the whole byte budget is rejected outright,
// before it can touch the LRU — admitting it would first flush every
// resident entry and then still leave the cache over budget with an
// entry the next eviction removes anyway. It is also how a payload
// already on disk is promoted into memory.
func (c *cache) memPut(key string, payload []byte) {
	if c.max <= 0 || int64(len(payload)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(payload)) - int64(len(e.payload))
		e.payload = payload
		c.order.MoveToFront(el)
	} else {
		c.entries[key] = c.order.PushFront(&cacheEntry{key: key, payload: payload})
		c.bytes += int64(len(payload))
	}
	for c.order.Len() > c.max || c.bytes > c.maxBytes {
		tail := c.order.Back()
		if tail == nil {
			break
		}
		e := tail.Value.(*cacheEntry)
		c.order.Remove(tail)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.payload))
	}
}

// len reports the current entry count.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// size reports the resident payload bytes.
func (c *cache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// flightGroup coalesces concurrent cache misses for the same key into
// one computation: the first caller becomes the leader and runs fn,
// every concurrent duplicate blocks until the leader finishes and then
// shares its payload (or error). Combined with the cache this gives
// the "N clients ask for the same sweep, the sim runs once" property.
type flightGroup struct {
	mu       sync.Mutex
	inflight map[string]*flight
}

type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// do runs fn for the key unless an identical computation is already in
// flight, in which case it waits for and shares that one's outcome —
// or gives up early when the follower's own ctx dies (a disconnected
// client must not stay pinned for the leader's whole computation; the
// leader itself runs fn to completion regardless, since others may be
// waiting). The third return reports whether this caller was a
// follower.
func (g *flightGroup) do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, error, bool) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[string]*flight)
	}
	if f, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.payload, f.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	f := &flight{done: make(chan struct{})}
	g.inflight[key] = f
	g.mu.Unlock()

	f.payload, f.err = fn()
	g.mu.Lock()
	delete(g.inflight, key)
	g.mu.Unlock()
	close(f.done)
	return f.payload, f.err, false
}
