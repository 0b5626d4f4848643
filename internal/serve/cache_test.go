package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tegrecon/internal/sim"
	"tegrecon/internal/store"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2, 1<<20, nil)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touch a → b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C")) // evicts b
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction despite being least recently used")
	}
	for key, want := range map[string]string{"a": "A", "c": "C"} {
		got, ok := c.get(key)
		if !ok || !bytes.Equal(got, []byte(want)) {
			t.Fatalf("get(%s) = %q, %v", key, got, ok)
		}
	}
	// Re-putting an existing key updates in place, no eviction.
	c.put("a", []byte("A2"))
	if got, _ := c.get("a"); !bytes.Equal(got, []byte("A2")) {
		t.Fatalf("update in place failed: %q", got)
	}
	if c.len() != 2 {
		t.Fatalf("len after update = %d", c.len())
	}
}

func TestCacheCounters(t *testing.T) {
	c := newCache(4, 1<<20, nil)
	c.get("nope")
	c.put("k", []byte("v"))
	c.get("k")
	c.get("k")
	if h, m := c.hits.Load(), c.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestCacheByteBudget proves the LRU is bounded by resident bytes as
// well as entries: big payloads evict from the tail, and a payload
// over the whole budget is never stored.
func TestCacheByteBudget(t *testing.T) {
	c := newCache(100, 10, nil) // 100 entries but only 10 bytes
	c.put("a", []byte("aaaa"))
	c.put("b", []byte("bbbb"))
	if c.size() != 8 {
		t.Fatalf("size = %d, want 8", c.size())
	}
	c.put("c", []byte("cccc")) // 12 bytes resident → evict a
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived the byte budget")
	}
	if c.size() != 8 || c.len() != 2 {
		t.Fatalf("size=%d len=%d after eviction", c.size(), c.len())
	}
	// Updating an entry in place adjusts the byte accounting.
	c.put("b", []byte("bb"))
	if c.size() != 6 {
		t.Fatalf("size after shrink = %d, want 6", c.size())
	}
	// A payload larger than the entire budget is refused outright.
	c.put("huge", bytes.Repeat([]byte("x"), 11))
	if _, ok := c.get("huge"); ok {
		t.Fatal("over-budget payload was cached")
	}
	if c.len() != 2 {
		t.Fatalf("over-budget put disturbed the cache: len=%d", c.len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newCache(0, 1<<20, nil)
	c.put("k", []byte("v"))
	if _, ok := c.get("k"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// TestFlightGroupCoalesces proves N concurrent misses on one key run
// the computation once and share the payload.
func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var computations atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err, _ := g.do(context.Background(), "key", func() ([]byte, error) {
				<-gate // hold the flight open until all callers joined
				computations.Add(1)
				return []byte("payload"), nil
			})
			if err != nil {
				t.Error(err)
			}
			payloads[i] = b
		}(i)
	}
	// Let callers pile onto the in-flight computation, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	for i, b := range payloads {
		if !bytes.Equal(b, []byte("payload")) {
			t.Fatalf("caller %d got %q", i, b)
		}
	}
	// Errors propagate to all callers and are not sticky.
	wantErr := errors.New("boom")
	_, err, _ := g.do(context.Background(), "key", func() ([]byte, error) { return nil, wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	b, err, _ := g.do(context.Background(), "key", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || !bytes.Equal(b, []byte("ok")) {
		t.Fatalf("flight after error: %q, %v", b, err)
	}
}

// TestFlightFollowerContext: a follower whose own request dies must
// unblock immediately with its context error, while the leader's
// computation keeps running for the others.
func TestFlightFollowerContext(t *testing.T) {
	var g flightGroup
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		g.do(context.Background(), "key", func() ([]byte, error) {
			<-gate
			return []byte("payload"), nil
		})
	}()
	// Wait until the leader's flight is registered.
	for {
		g.mu.Lock()
		_, inflight := g.inflight["key"]
		g.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err, shared := g.do(ctx, "key", func() ([]byte, error) {
		t.Error("follower ran the computation")
		return nil, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned follower: shared=%v err=%v", shared, err)
	}
	close(gate)
	<-leaderDone
}

func TestQueueBounds(t *testing.T) {
	q := newQueue(1, 1)
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q.active() != 1 {
		t.Fatalf("active = %d", q.active())
	}
	// One waiter is admitted and blocks...
	waited := make(chan error, 1)
	go func() {
		waited <- q.acquire(context.Background())
	}()
	// ...wait until it is actually counted, then the next is shed.
	deadline := time.Now().Add(2 * time.Second)
	for q.depth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.acquire(context.Background()); !errors.Is(err, errQueueFull) {
		t.Fatalf("over-capacity acquire: %v, want errQueueFull", err)
	}
	q.release()
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	q.release()

	// A canceled context aborts a blocked acquire.
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire: %v", err)
	}
	q.release()
}

func TestCanonicalKeys(t *testing.T) {
	s := New(Config{})
	base := RunRequest{Cycle: "wltc", Scheme: "dnor", DurationS: 10}
	p1, herr := s.normalizeRun(base)
	if herr != nil {
		t.Fatal(herr)
	}
	// Same request, different surface spelling: scheme case and an
	// explicit full-length duration normalize away.
	alt := RunRequest{Cycle: "WLTC", Scheme: "DNOR", DurationS: 10}
	p2, herr := s.normalizeRun(alt)
	if herr != nil {
		t.Fatal(herr)
	}
	if runKey(p1) != runKey(p2) {
		t.Fatal("equivalent requests hash differently")
	}
	full := RunRequest{Cycle: "wltc", Scheme: "dnor"}
	overlong := RunRequest{Cycle: "wltc", Scheme: "dnor", DurationS: 1e6}
	pf, _ := s.normalizeRun(full)
	po, _ := s.normalizeRun(overlong)
	if runKey(pf) != runKey(po) {
		t.Fatal("full-cycle and past-the-end durations hash differently")
	}
	// Every physically meaningful field changes the key.
	seed := int64(8)
	noise := 0.2
	variants := []RunRequest{
		{Cycle: "nedc", Scheme: "dnor", DurationS: 10},
		{Cycle: "wltc", Scheme: "inor", DurationS: 10},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 11},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, TickS: 1},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, Seed: &seed},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, SensorNoiseC: &noise},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, Modules: 50},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, HorizonTicks: 8},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, Battery: true},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, Ticks: true},
	}
	seen := map[string]int{runKey(p1): -1}
	for i, req := range variants {
		p, herr := s.normalizeRun(req)
		if herr != nil {
			t.Fatalf("variant %d: %v", i, herr)
		}
		k := runKey(p)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[k] = i
	}

	// Sweep keys hash the translated, normalized matrix: order of
	// cycles/schemes is part of the identity.
	keyOfSweep := func(req SweepRequest) string {
		t.Helper()
		p, herr := s.normalizeMatrix(MatrixRequest{Matrix: sweepMatrix(req)})
		if herr != nil {
			t.Fatal(herr)
		}
		k, err := matrixKey("sweep", p.m)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	sw1 := keyOfSweep(SweepRequest{Cycles: []string{"nedc", "wltc"}, Schemes: []string{"inor", "dnor"}, MaxDurationS: 10})
	sw2 := keyOfSweep(SweepRequest{Cycles: []string{"wltc", "nedc"}, Schemes: []string{"inor", "dnor"}, MaxDurationS: 10})
	if sw1 == sw2 {
		t.Fatal("cycle order did not change the sweep key")
	}
	sw3 := keyOfSweep(SweepRequest{Cycles: []string{"nedc", "wltc"}, Schemes: []string{"INOR", "DNOR"}, MaxDurationS: 10})
	if sw1 != sw3 {
		t.Fatal("scheme name case changed the sweep key")
	}
	// A cap past every schedule end is physically the same sweep as no
	// cap; a cap between two cycle lengths is not.
	swFull := keyOfSweep(SweepRequest{Cycles: []string{"nedc", "wltc"}, Schemes: []string{"inor"}})
	swHuge := keyOfSweep(SweepRequest{Cycles: []string{"nedc", "wltc"}, Schemes: []string{"inor"}, MaxDurationS: 1e6})
	if swFull != swHuge {
		t.Fatal("past-the-end sweep cap hashed differently from no cap")
	}
	swMid := keyOfSweep(SweepRequest{Cycles: []string{"nedc", "wltc"}, Schemes: []string{"inor"}, MaxDurationS: 1500})
	if swMid == swFull {
		t.Fatal("a cap that truncates only the wltc did not change the key")
	}
}

func TestNormalizeRejects(t *testing.T) {
	s := New(Config{MaxModules: 100, MaxTicksPerJob: 1000})
	overNoise := sim.MaxSensorNoiseC + 1
	cases := []RunRequest{
		{},                              // no cycle
		{Cycle: "wltc"},                 // no scheme
		{Cycle: "nope", Scheme: "dnor"}, // unknown cycle
		{Cycle: "wltc", Scheme: "nope"}, // unknown scheme
		{Cycle: "wltc", Scheme: "dnor", DurationS: -1},
		{Cycle: "wltc", Scheme: "dnor", TickS: -0.5},
		{Cycle: "wltc", Scheme: "dnor", Modules: 101},
		{Cycle: "wltc", Scheme: "dnor", HorizonTicks: -1},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 1, HorizonTicks: sim.MaxHorizonTicks + 1},
		{Cycle: "wltc", Scheme: "dnor", DurationS: 1, SensorNoiseC: &overNoise},
		{Cycle: "wltc", Scheme: "dnor"},                              // full 1800 s / 0.5 s = 3601 ticks > 1000
		{Cycle: "wltc", Scheme: "dnor", DurationS: 0.1},              // shorter than one control period
		{Cycle: "wltc", Scheme: "dnor", DurationS: 10, TickS: 1e308}, // would overflow energy accounting
	}
	for i, req := range cases {
		if _, herr := s.normalizeRun(req); herr == nil {
			t.Errorf("case %d (%+v) normalized", i, req)
		} else if herr.status != 400 {
			t.Errorf("case %d status = %d", i, herr.status)
		}
	}
	neg := -0.1
	sweeps := []struct {
		name string
		req  SweepRequest
	}{
		{"negative noise", SweepRequest{SensorNoiseC: &neg}},
		{"noise over the bound", SweepRequest{Cycles: []string{"nedc"}, MaxDurationS: 1, SensorNoiseC: &overNoise}},
		{"horizon over the bound", SweepRequest{Cycles: []string{"nedc"}, MaxDurationS: 1, HorizonTicks: sim.MaxHorizonTicks + 1}},
		{"unknown cycle", SweepRequest{Cycles: []string{"nope"}}},
		{"unknown scheme", SweepRequest{Schemes: []string{"nope"}}},
		{"sub-period cap", SweepRequest{Cycles: []string{"delivery"}, MaxDurationS: 0.2}},
		{"full default sweep over a 1000-tick budget", SweepRequest{}},
	}
	for _, tc := range sweeps {
		if _, herr := s.normalizeMatrix(MatrixRequest{Matrix: sweepMatrix(tc.req)}); herr == nil {
			t.Errorf("sweep %s normalized", tc.name)
		} else if herr.status != 400 {
			t.Errorf("sweep %s status = %d", tc.name, herr.status)
		}
	}
}

func TestSSERoundTrip(t *testing.T) {
	var buf bytes.Buffer
	// Encode directly against the buffer (flusher-free path is only in
	// newEventWriter; the writer itself just needs io.Writer + flush).
	ew := &eventWriter{w: &buf, fl: nopFlusher{}}
	if err := ew.event("tick", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := ew.event("summary", []byte("line1\nline2")); err != nil {
		t.Fatal(err)
	}
	var got []Event
	if err := DecodeEvents(&buf, func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "tick" || string(got[0].Data) != `{"a":1}` {
		t.Fatalf("decoded %+v", got)
	}
	if got[1].Name != "summary" || string(got[1].Data) != "line1\nline2" {
		t.Fatalf("multi-line event decoded as %q", got[1].Data)
	}

	// ErrStopDecoding ends the loop cleanly.
	buf.Reset()
	ew.event("tick", []byte("1"))
	ew.event("tick", []byte("2"))
	n := 0
	if err := DecodeEvents(&buf, func(Event) error { n++; return ErrStopDecoding }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("decoded %d events after stop", n)
	}
}

type nopFlusher struct{}

func (nopFlusher) Flush() {}

func ExampleDecodeEvents() {
	stream := "event: tick\ndata: {\"t\":0}\n\nevent: summary\ndata: done\n\n"
	DecodeEvents(strings.NewReader(stream), func(ev Event) error {
		fmt.Printf("%s: %s\n", ev.Name, ev.Data)
		return nil
	})
	// Output:
	// tick: {"t":0}
	// summary: done
}

// TestCachePutOversizedRejected pins the oversize admission rule: a
// payload larger than the whole byte budget must be refused before it
// touches the LRU — the failure mode being pinned is an oversized put
// first evicting every resident entry and then landing anyway, leaving
// the cache both empty of useful results and over budget.
func TestCachePutOversizedRejected(t *testing.T) {
	c := newCache(100, 10, nil)
	c.put("a", []byte("aaa"))
	c.put("b", []byte("bbb"))
	c.put("huge", bytes.Repeat([]byte("x"), 11))
	if _, ok := c.peek("huge"); ok {
		t.Fatal("payload over the whole byte budget was admitted")
	}
	if c.len() != 2 || c.size() != 6 {
		t.Fatalf("oversized put disturbed residents: len=%d size=%d, want 2/6", c.len(), c.size())
	}
	for _, key := range []string{"a", "b"} {
		if _, ok := c.peek(key); !ok {
			t.Fatalf("resident %q was evicted by a rejected oversized put", key)
		}
	}
	// Exactly at the budget is admissible (and evicts both residents).
	c.put("fit", bytes.Repeat([]byte("y"), 10))
	if _, ok := c.peek("fit"); !ok {
		t.Fatal("payload exactly at the byte budget was refused")
	}
	if c.size() != 10 {
		t.Fatalf("size = %d after at-budget put, want 10", c.size())
	}
}

// TestCacheDiskTier proves the two-tier contract: puts write through
// to the disk store, a fresh cache on the same store answers from disk
// (promoting into memory and counting a client-visible hit), and peek
// and has see the disk tier without promotion.
func TestCacheDiskTier(t *testing.T) {
	st := openTestStore(t)
	key := testCellHash("payload")
	c1 := newCache(4, 1<<20, st)
	c1.put(key, []byte("persisted"))

	// A second cache on the same store models a restarted process:
	// empty memory, warm disk.
	c2 := newCache(4, 1<<20, st)
	got, ok := c2.get(key)
	if !ok || string(got) != "persisted" {
		t.Fatalf("get after restart = %q, %v", got, ok)
	}
	if h, d := c2.hits.Load(), c2.diskHits.Load(); h != 1 || d != 1 {
		t.Fatalf("hits=%d diskHits=%d, want 1/1", h, d)
	}
	// The disk hit was promoted: a repeat get answers from memory.
	if _, ok := c2.get(key); !ok {
		t.Fatal("promoted entry missing from memory")
	}
	if d := c2.diskHits.Load(); d != 1 {
		t.Fatalf("diskHits = %d after a memory hit, want still 1", d)
	}

	c3 := newCache(4, 1<<20, st)
	if !c3.has(key) {
		t.Fatal("has missed the disk tier")
	}
	if b, ok := c3.peek(key); !ok || string(b) != "persisted" {
		t.Fatalf("peek missed the disk tier: %q, %v", b, ok)
	}
	if h, m := c3.hits.Load(), c3.misses.Load(); h != 0 || m != 0 {
		t.Fatalf("peek/has touched client-facing stats: hits=%d misses=%d", h, m)
	}
}

// TestCacheDisabledMemoryStillPersists: with the memory tier disabled
// the disk tier keeps working — the configuration a thin coordinator
// in front of a shared store would run.
func TestCacheDisabledMemoryStillPersists(t *testing.T) {
	st := openTestStore(t)
	c := newCache(0, 1<<20, st)
	key := testCellHash("no-memory")
	c.put(key, []byte("v"))
	if c.len() != 0 {
		t.Fatal("disabled memory tier stored an entry")
	}
	if got, ok := c.get(key); !ok || string(got) != "v" {
		t.Fatalf("disk tier did not serve with memory disabled: %q, %v", got, ok)
	}
}

// TestComputeSharedFillsOnce covers both ends of the cross-process
// single flight: a payload a peer process already landed in the store
// is taken without computing and promoted into memory only, and a
// computed payload is written to memory and, once, to the store before
// the key's lock is released.
func TestComputeSharedFillsOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})

	landed := testCellHash("landed by a peer")
	if err := peer.Put(landed, []byte("peer")); err != nil {
		t.Fatal(err)
	}
	b, err := s.computeShared(landed, func(context.Context) ([]byte, error) {
		t.Fatal("computed a payload a peer already landed")
		return nil, nil
	})
	if err != nil || string(b) != "peer" {
		t.Fatalf("peer-landed payload = %q, %v", b, err)
	}
	if _, ok := s.cache.entries[landed]; !ok {
		t.Fatal("peer-landed payload not promoted into memory")
	}

	fresh := testCellHash("computed here")
	calls := 0
	b, err = s.computeShared(fresh, func(context.Context) ([]byte, error) {
		calls++
		if _, ok := st.TryLock(fresh); ok {
			t.Error("computing without holding the key's store lock")
		}
		return []byte("mine"), nil
	})
	if err != nil || string(b) != "mine" || calls != 1 {
		t.Fatalf("computed payload = %q, %v after %d computations", b, err, calls)
	}
	if _, ok := s.cache.entries[fresh]; !ok {
		t.Fatal("computed payload not cached in memory")
	}
	if got, ok := peer.Get(fresh); !ok || string(got) != "mine" {
		t.Fatalf("computed payload not in the store: %q, %v", got, ok)
	}
	if puts := st.Snapshot().Puts; puts != 1 {
		t.Fatalf("store puts = %d, want 1 (the computed payload only)", puts)
	}
}

// TestWriteBehindBackpressure: more cells than the write-behind queue
// holds all reach the disk, with no put errors. The overflow is written
// inline by the producer rather than dropped, every cell is readable
// the moment putBehind returns (the memory tier is disabled here, so
// reads come from the queue or the disk), and after flush the queue is
// empty and later cells are written before putBehind returns.
func TestWriteBehindBackpressure(t *testing.T) {
	st := openTestStore(t)
	c := newCache(0, 1<<20, st)
	keys := make([]string, 4*writeBehindCap)
	for i := range keys {
		keys[i] = testCellHash(fmt.Sprint("cell ", i))
		c.putBehind(keys[i], []byte(keys[i]))
		if b, ok := c.peek(keys[i]); !ok || string(b) != keys[i] {
			t.Fatalf("cell %d unreadable right after putBehind: %q, %v", i, b, ok)
		}
	}
	if c.inlineWrites.Load() == 0 {
		t.Fatalf("%d cells never filled the %d-entry queue", len(keys), writeBehindCap)
	}
	c.flush()
	if q := c.queuedLen(); q != 0 {
		t.Fatalf("%d writes still queued after flush", q)
	}
	if e := c.diskPutErrors.Load(); e != 0 {
		t.Fatalf("%d disk put errors", e)
	}
	if puts := st.Snapshot().Puts; puts != int64(len(keys)) {
		t.Fatalf("store puts = %d, want %d", puts, len(keys))
	}
	for i, k := range keys {
		if !st.Has(k) {
			t.Fatalf("cell %d not on disk after flush", i)
		}
	}
	late := testCellHash("after flush")
	c.putBehind(late, []byte("late"))
	if !st.Has(late) {
		t.Fatal("a cell put after flush was queued, not written")
	}
}
