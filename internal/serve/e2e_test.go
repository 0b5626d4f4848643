package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"tegrecon/internal/store"
)

// TestEndToEnd is the PR's acceptance test, driven over a real TCP
// listener through Server.Serve (the exact path cmd/tegserve runs):
//
//  1. the same sweep submitted twice — the second response must be a
//     cache hit carrying byte-identical payload;
//  2. the server shut down gracefully mid-SSE-stream — the stream must
//     terminate and Serve return a clean drain;
//  3. no goroutines may outlive the server (run under -race in CI).
func TestEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{MaxConcurrent: 2, MaxQueued: 4})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l, 10*time.Second) }()
	base := "http://" + l.Addr().String()

	// 1. Same sweep twice: second is a byte-identical cache hit.
	sweep := `{"cycles":["delivery","nedc"],"schemes":["baseline","inor"],"max_duration_s":6,"modules":20}`
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(sweep))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	resp1, body1 := post()
	resp2, body2 := post()
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("sweep statuses %d/%d: %s", resp1.StatusCode, resp2.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first sweep X-Cache = %q, want miss", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second sweep X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("cache hit is not byte-identical to the computed response")
	}
	if k1, k2 := resp1.Header.Get("X-Cache-Key"), resp2.Header.Get("X-Cache-Key"); k1 == "" || k1 != k2 {
		t.Fatalf("cache keys %q / %q", k1, k2)
	}

	// 2. Open a long SSE stream, read until the first tick, then pull
	// the plug: SIGTERM-equivalent cancel → Drain → Shutdown. The
	// stream's run context aborts within one control period, the
	// stream terminates, and Serve drains cleanly.
	streamResp, err := http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"cycle":"wltc","scheme":"inor","modules":20,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	sawTick := make(chan struct{})
	streamEnded := make(chan error, 1)
	var tail []string
	go func() {
		first := true
		streamEnded <- DecodeEvents(streamResp.Body, func(ev Event) error {
			if ev.Name == "tick" && first {
				first = false
				close(sawTick)
			}
			tail = append(tail, ev.Name)
			return nil
		})
	}()
	select {
	case <-sawTick:
	case <-time.After(10 * time.Second):
		t.Fatal("stream produced no tick")
	}
	cancel() // the tegserve signal path
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("graceful drain failed: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after cancel — drain hung on the live stream")
	}
	select {
	case err := <-streamEnded:
		// The decode loop must have ended (EOF or connection reset);
		// either way the stream terminated rather than hanging.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open after server drained")
	}
	if len(tail) > 0 && tail[len(tail)-1] == "error" {
		// Expected shape: the aborted run reports the cancellation.
	} else if len(tail) > 0 && tail[len(tail)-1] == "summary" {
		t.Error("mid-drain stream claims a completed summary")
	}
	if !s.Draining() {
		t.Error("server not marked draining after Serve returned")
	}

	// 3. No goroutine leaks: everything the server and its jobs
	// spawned must be gone.
	waitForGoroutines(t, before)
}

func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		// Allow slack for runtime/test harness goroutines that come and
		// go; a leaked-per-job pattern would overshoot this by far.
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServeListenerError proves Serve surfaces a listener failure
// instead of hanging.
func TestServeListenerError(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l.Close() // Serve's Accept loop fails immediately
	if err := s.Serve(context.Background(), l, time.Second); err == nil {
		t.Fatal("Serve on a closed listener returned nil")
	}
}

func BenchmarkCachedRunRequest(b *testing.B) {
	s := New(Config{})
	req := RunRequest{Cycle: "delivery", Scheme: "inor", DurationS: 6, Modules: 20}
	p, herr := s.runMatrix(req)
	if herr != nil {
		b.Fatal(herr)
	}
	payload, err := s.runPayload(context.Background(), p.m, false, false)
	if err != nil {
		b.Fatal(err)
	}
	s.cache.put(runKey(p.m, false, false), payload)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A hit pays for the request's matrix normalization and its key.
		p, herr := s.runMatrix(req)
		if herr != nil {
			b.Fatal(herr)
		}
		if _, ok := s.cache.get(runKey(p.m, false, false)); !ok {
			b.Fatal("miss")
		}
	}
}

// TestColdRestartServesFromStore is the persistence round trip: a
// server with a disk store computes a sweep and a matrix, drains
// (SIGTERM-equivalent), and a brand-new process opening the same
// -store-dir serves both byte-identically as cache hits with zero
// recomputation. A superset matrix then proves resumable grids: only
// the genuinely new cells are simulated after restart; and a one-cycle
// subset of the stored sweep, a new envelope, simulates none.
func TestColdRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	sweep := `{"cycles":["delivery","nedc"],"schemes":["inor"],"max_duration_s":6,"modules":20}`
	matrixA := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR"],"ambients":[{"ambient_c":15},{"ambient_c":25}],
		"array_sizes":[20],"max_duration_s":6}`
	matrixB := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
		"schemes":["INOR"],"ambients":[{"ambient_c":15},{"ambient_c":25},{"ambient_c":35}],
		"array_sizes":[20],"max_duration_s":6}`

	// Life 1: compute, persist, drain.
	s1, base1, stop1 := bootStoreServer(t, dir)
	_, sweepBytes := postOK(t, base1, "/v1/sweeps", sweep)
	_, matrixABytes := postOK(t, base1, "/v1/matrix", matrixA)
	// Two sweep cells and two matrix cells.
	if st := s1.Stats(); st.Computations == 0 || st.MatrixCells != 4 {
		t.Fatalf("life 1 stats: %+v", st)
	}
	stop1()

	// Life 2: a cold process on the same directory serves both from
	// disk — byte-identical, client-visible hits, zero simulation.
	s2, base2, stop2 := bootStoreServer(t, dir)
	resp, b := postOK(t, base2, "/v1/sweeps", sweep)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("sweep after restart X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b, sweepBytes) {
		t.Fatal("sweep bytes changed across restart")
	}
	resp, b = postOK(t, base2, "/v1/matrix", matrixA)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("matrix after restart X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b, matrixABytes) {
		t.Fatal("matrix bytes changed across restart")
	}
	st := s2.Stats()
	if st.Computations != 0 || st.Ticks != 0 || st.MatrixCells != 0 {
		t.Fatalf("restarted server recomputed: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatal("no disk-tier hits recorded after restart")
	}

	// Resumable grid: the superset matrix recalls A's cells from disk
	// and simulates only the new ambient column.
	resp, _ = postOK(t, base2, "/v1/matrix", matrixB)
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "2" {
		t.Fatalf("superset X-Matrix-Cells-Cached = %q, want 2", got)
	}
	if st := s2.Stats(); st.MatrixCells != 1 {
		t.Fatalf("superset simulated %d cells, want exactly the new one", st.MatrixCells)
	}

	subset := `{"cycles":["nedc"],"schemes":["inor"],"max_duration_s":6,"modules":20}`
	resp, b = postOK(t, base2, "/v1/sweeps", subset)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("subset sweep X-Cache = %q, want miss (different envelope)", got)
	}
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "1" {
		t.Fatalf("subset sweep X-Matrix-Cells-Cached = %q, want 1", got)
	}
	if st := s2.Stats(); st.MatrixCells != 1 {
		t.Fatalf("subset sweep simulated %d cells, want none", st.MatrixCells-1)
	}
	_, ts := newTestServer(t, Config{})
	if _, fresh := postOK(t, ts.URL, "/v1/sweeps", subset); !bytes.Equal(b, fresh) {
		t.Fatalf("recalled subset sweep differs from a fresh server's\n%s\n%s", b, fresh)
	}
	stop2()
}

// bootStoreServer serves a fresh server over a store on dir through
// Serve (the cmd/tegserve path) and returns it, its base URL and a stop
// function that cancels Serve and waits for a clean drain.
func bootStoreServer(t *testing.T, dir string) (*Server, string, func()) {
	t.Helper()
	st, err := store.Open(dir, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: st})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l, 10*time.Second) }()
	return s, "http://" + l.Addr().String(), func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
}

// postOK posts a JSON body and fails the test unless it answers 200.
func postOK(t *testing.T, base, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("%s: %d: %s", path, resp.StatusCode, b)
	}
	return resp, b
}

// TestDrainFlushesQueuedCells: matrix cells reach the store behind the
// response, so Serve must write out whatever is still queued before it
// returns. A store-backed server computes a matrix and drains; a fresh
// server on the same directory then answers a different matrix, made
// of a subset of those cells, without simulating any of them. No
// goroutine outlives either server.
func TestDrainFlushesQueuedCells(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	full := `{"cycles":[{"synth":{"profile":"urban","seed":4,"duration_s":6}}],
		"schemes":["INOR","DNOR"],
		"ambients":[{"ambient_c":10},{"ambient_c":20},{"ambient_c":30},{"ambient_c":40}],
		"array_sizes":[20],"max_duration_s":6}`
	subset := `{"cycles":[{"synth":{"profile":"urban","seed":4,"duration_s":6}}],
		"schemes":["INOR","DNOR"],"ambients":[{"ambient_c":20},{"ambient_c":40}],
		"array_sizes":[20],"max_duration_s":6}`

	s1, base1, stop1 := bootStoreServer(t, dir)
	postOK(t, base1, "/v1/matrix", full)
	stop1()
	if st := s1.Stats(); st.MatrixCells != 8 || st.DiskWritesQueued != 0 || st.DiskPutErrors != 0 {
		t.Fatalf("after drain: %d cells simulated, %d writes queued, %d put errors; want 8/0/0",
			st.MatrixCells, st.DiskWritesQueued, st.DiskPutErrors)
	}

	_, base2, stop2 := bootStoreServer(t, dir)
	resp, _ := postOK(t, base2, "/v1/matrix", subset)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("subset matrix X-Cache = %q, want miss (a different matrix)", got)
	}
	if got := resp.Header.Get("X-Matrix-Cells-Cached"); got != "4" {
		t.Fatalf("subset X-Matrix-Cells-Cached = %q, want 4", got)
	}
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\ntegserve_matrix_cells_total 0\n") {
		t.Fatalf("restarted server simulated cells:\n%s", metrics)
	}
	stop2()
	waitForGoroutines(t, before)
}
