// Tests for the distributed serve tier: the shard-merge bit-exactness
// property, coordinator/worker byte-identity over real HTTP, and the
// fault-injection suite (a peer dying mid-shard must never change a
// byte of the final envelope).

package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
	"tegrecon/internal/store"
)

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// testCellHash makes a syntactically valid content key for cache/store
// tests that do not go through the canonical request hasher.
func testCellHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// distMatrix is the sharding workload: 2 schemes × 3 ambients = 6
// cells, each a 6 s urban synth run on a 20-module rig — small enough
// to recompute many times, wide enough for non-trivial partitions and
// marginals on two axes.
func distMatrix() *scenario.Matrix {
	return &scenario.Matrix{
		Name:         "dist",
		MaxDurationS: 6,
		Cycles:       []scenario.CycleSpec{{Synth: &scenario.SynthSpec{Profile: "urban", Seed: 9, DurationS: 6}}},
		Schemes:      []string{"INOR", "DNOR"},
		Ambients:     []scenario.AmbientSpec{{AmbientC: 15}, {AmbientC: 25}, {AmbientC: 35}},
		ArraySizes:   []int{20},
	}
}

const distMatrixJSON = `{"name":"dist","max_duration_s":6,
	"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],
	"schemes":["INOR","DNOR"],
	"ambients":[{"ambient_c":15},{"ambient_c":25},{"ambient_c":35}],
	"array_sizes":[20]}`

const distSweepJSON = `{"cycles":["wltc","delivery","nedc"],"schemes":["inor","dnor"],
	"max_duration_s":6,"modules":20}`

// TestShardMergePropertyByteIdentity is the soundness property the
// whole distribution tier rests on, checked at the engine level: for
// random partitions of an expansion into shards, running each shard
// via Subset (at varying worker counts, in shuffled shard order) and
// merging by cell index reproduces the serial full-grid envelope —
// cells and marginals — byte-identically.
func TestShardMergePropertyByteIdentity(t *testing.T) {
	m := distMatrix()
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	counts, err := n.Counts()
	if err != nil {
		t.Fatal(err)
	}
	p := matrixParams{m: n, counts: counts}
	ex, err := n.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Serial baseline: the whole grid on one worker.
	res, err := experiments.RunExpansion(ctx, ex, experiments.MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := marshalMatrixEnvelope(p, res.Cells)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		// Random partition: shuffle the cell indices, cut at random
		// points, shuffle the shard execution order.
		idxs := rng.Perm(len(ex.Cells))
		var shards [][]int
		for lo := 0; lo < len(idxs); {
			hi := lo + 1 + rng.Intn(len(idxs)-lo)
			shards = append(shards, idxs[lo:hi])
			lo = hi
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		cells := make([]experiments.MatrixCell, len(ex.Cells))
		for _, shard := range shards {
			sub, err := ex.Subset(shard)
			if err != nil {
				t.Fatal(err)
			}
			sres, err := experiments.RunExpansion(ctx, sub, experiments.MatrixOptions{Workers: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range sres.Cells {
				cells[c.Index] = c // Subset preserves full-grid indices
			}
		}
		merged, err := marshalMatrixEnvelope(p, cells)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseline, merged) {
			t.Fatalf("trial %d: merged envelope differs from serial baseline\npartition: %v", trial, shards)
		}
	}
}

// newWorkerFleet boots n plain worker servers and returns their base
// URLs plus the servers (for stats assertions).
func newWorkerFleet(t *testing.T, n int) ([]string, []*Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*Server, n)
	for i := range urls {
		s, ts := newTestServer(t, Config{})
		urls[i], servers[i] = ts.URL, s
	}
	return urls, servers
}

// TestCoordinatorShardedMatrixByteIdentity: a matrix sharded across
// two real worker processes (httptest servers with their own queues,
// caches and batch pools) returns an envelope byte-identical to a
// single-process run — and the coordinator simulates nothing itself.
func TestCoordinatorShardedMatrixByteIdentity(t *testing.T) {
	_, tsSingle := newTestServer(t, Config{})
	_, bodySingle := postJSON(t, tsSingle.URL+"/v1/matrix", distMatrixJSON)

	peers, workers := newWorkerFleet(t, 2)
	coord, tsCoord := newTestServer(t, Config{WorkerPeers: peers})
	resp, body := postJSON(t, tsCoord.URL+"/v1/matrix", distMatrixJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("coordinator: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, bodySingle) {
		t.Fatal("sharded envelope differs from the single-process run")
	}

	st := coord.Stats()
	if st.ShardsDispatched < 2 {
		t.Fatalf("coordinator dispatched %d shards, want >= 2", st.ShardsDispatched)
	}
	if st.ShardRetries != 0 {
		t.Fatalf("healthy fleet needed %d local retries", st.ShardRetries)
	}
	if st.Ticks != 0 {
		t.Fatalf("coordinator simulated %d ticks itself, want 0", st.Ticks)
	}
	var served, cells int64
	for _, w := range workers {
		ws := w.Stats()
		served += ws.ShardsServed
		cells += ws.MatrixCells
	}
	if served < 2 || cells != 6 {
		t.Fatalf("workers served %d shards / %d cells, want >=2 / 6", served, cells)
	}

	// Repeat through the coordinator: envelope-cache hit, same bytes.
	resp2, body2 := postJSON(t, tsCoord.URL+"/v1/matrix", distMatrixJSON)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body2, bodySingle) {
		t.Fatal("cached sharded envelope differs")
	}
}

// TestCoordinatorShardedSweepByteIdentity: the same contract for
// /v1/sweeps — cell shards rendered in request order match the
// single-process table byte for byte.
func TestCoordinatorShardedSweepByteIdentity(t *testing.T) {
	_, tsSingle := newTestServer(t, Config{})
	_, bodySingle := postJSON(t, tsSingle.URL+"/v1/sweeps", distSweepJSON)

	peers, workers := newWorkerFleet(t, 2)
	coord, tsCoord := newTestServer(t, Config{WorkerPeers: peers})
	resp, body := postJSON(t, tsCoord.URL+"/v1/sweeps", distSweepJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("coordinator: %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first sweep X-Cache = %q, want miss", got)
	}
	if !bytes.Equal(body, bodySingle) {
		t.Fatal("sharded sweep differs from the single-process run")
	}
	if st := coord.Stats(); st.Ticks != 0 || st.ShardsDispatched < 2 {
		t.Fatalf("coordinator ticks=%d shards=%d, want 0 / >=2", st.Ticks, st.ShardsDispatched)
	}
	var ticks int64
	for _, w := range workers {
		ticks += w.Stats().Ticks
	}
	if ticks == 0 {
		t.Fatal("no worker simulated anything")
	}

	resp2, body2 := postJSON(t, tsCoord.URL+"/v1/sweeps", distSweepJSON)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body2, bodySingle) {
		t.Fatal("cached sharded sweep differs")
	}
}

// abortingPeer is the injectable failing worker: every /v1/shards
// request starts a plausible 200 response and then kills the
// connection mid-body — exactly what a worker process dying mid-shard
// looks like from the coordinator's side of the socket.
func abortingPeer(t *testing.T, hits *int64) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shards" {
			http.NotFound(w, r)
			return
		}
		*hits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"cells":[{"index":`))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // sever the connection mid-response
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorRetriesKilledShardLocally is the fault-injection
// suite: one healthy worker, one peer that dies mid-shard on every
// request. The coordinator must absorb the failure by recomputing the
// dead peer's shards locally, and both the matrix and sweep envelopes
// must be byte-identical to an undisturbed single-process run.
func TestCoordinatorRetriesKilledShardLocally(t *testing.T) {
	_, tsSingle := newTestServer(t, Config{})
	_, matrixSingle := postJSON(t, tsSingle.URL+"/v1/matrix", distMatrixJSON)
	_, sweepSingle := postJSON(t, tsSingle.URL+"/v1/sweeps", distSweepJSON)

	var aborted int64
	goodPeers, _ := newWorkerFleet(t, 1)
	bad := abortingPeer(t, &aborted)
	coord, tsCoord := newTestServer(t, Config{WorkerPeers: []string{goodPeers[0], bad}})

	resp, body := postJSON(t, tsCoord.URL+"/v1/matrix", distMatrixJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("matrix through flaky fleet: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, matrixSingle) {
		t.Fatal("matrix envelope changed after a worker died mid-shard")
	}
	resp, body = postJSON(t, tsCoord.URL+"/v1/sweeps", distSweepJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep through flaky fleet: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, sweepSingle) {
		t.Fatal("sweep envelope changed after a worker died mid-shard")
	}

	st := coord.Stats()
	if aborted == 0 {
		t.Fatal("the failing peer was never asked for a shard")
	}
	if st.ShardRetries == 0 {
		t.Fatal("no shard was retried locally")
	}
	if st.Ticks == 0 {
		t.Fatal("local retry did not simulate (who computed the dead shards?)")
	}
}

// paddingPeer is the injectable oversized worker: it relays each
// shard to a real worker and returns that worker's honest 200 body,
// then keeps streaming JSON whitespace, so without a bound the padded
// body would still decode into the right cells. honest records the
// relayed body's length.
func paddingPeer(t *testing.T, worker string, honest *int) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(worker+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			http.Error(w, "relay failed", http.StatusBadGateway)
			return
		}
		*honest = len(body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		pad := bytes.Repeat([]byte(" "), 64<<10)
		// Stops once the coordinator hangs up; 64 MiB is a backstop so a
		// missing bound fails the test instead of hanging it.
		for i := 0; i < 1024; i++ {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestCoordinatorBoundsOversizedShardResponse: a peer whose 200 body
// runs past the shard's response cap is a failed shard. The
// coordinator stops reading, recomputes the shard locally, and serves
// the same bytes as a lone server.
func TestCoordinatorBoundsOversizedShardResponse(t *testing.T) {
	_, tsSingle := newTestServer(t, Config{})
	_, bodySingle := postJSON(t, tsSingle.URL+"/v1/matrix", distMatrixJSON)

	workers, _ := newWorkerFleet(t, 1)
	var honest int
	coord, tsCoord := newTestServer(t, Config{WorkerPeers: []string{paddingPeer(t, workers[0], &honest)}})
	resp, body := postJSON(t, tsCoord.URL+"/v1/matrix", distMatrixJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("coordinator: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, bodySingle) {
		t.Fatal("envelope differs from the single-process run after an oversized shard")
	}
	if st := coord.Stats(); st.ShardRetries != 1 {
		t.Fatalf("retries = %d, want 1", st.ShardRetries)
	}

	// The honest part of the reply fits its cap: the bound refuses only
	// the padding.
	ex, err := distMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(ex.Cells))
	for i := range all {
		all[i] = i
	}
	if limit := shardResponseCap(ex, all); honest == 0 || int64(honest) > limit {
		t.Fatalf("honest shard body %d bytes, cap %d", honest, limit)
	}
}

// TestCoordinatorAllPeersDead: with every peer unreachable the
// coordinator degrades to a slower single process, not an error.
func TestCoordinatorAllPeersDead(t *testing.T) {
	_, tsSingle := newTestServer(t, Config{})
	_, bodySingle := postJSON(t, tsSingle.URL+"/v1/matrix", distMatrixJSON)

	// A listener that closed before the test: connection refused.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	coord, tsCoord := newTestServer(t, Config{WorkerPeers: []string{deadURL}})
	resp, body := postJSON(t, tsCoord.URL+"/v1/matrix", distMatrixJSON)
	if resp.StatusCode != 200 {
		t.Fatalf("coordinator with dead fleet: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, bodySingle) {
		t.Fatal("locally recomputed envelope differs from the single-process run")
	}
	if st := coord.Stats(); st.ShardRetries == 0 {
		t.Fatalf("retries = %d, want > 0", st.ShardRetries)
	}
}

// TestShardEndpointValidation: the internal endpoint still speaks
// proper HTTP to confused or version-skewed callers.
func TestShardEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantStatus int
	}{
		{"unknown kind", `{"kind":"nope"}`, http.StatusBadRequest},
		{"matrix without spec", `{"kind":"matrix","cells":[0]}`, http.StatusBadRequest},
		{"matrix without cells", fmt.Sprintf(`{"kind":"matrix","matrix":%s}`, distMatrixJSON), http.StatusBadRequest},
		{"matrix cell out of range", fmt.Sprintf(`{"kind":"matrix","matrix":%s,"cells":[99]}`, distMatrixJSON), http.StatusBadRequest},
		{"sweep without body", `{"kind":"sweep"}`, http.StatusBadRequest},
		{"sweep bad cycle", `{"kind":"sweep","sweep":{"cycles":["nope"]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/shards", tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
		})
	}
}

// TestShardEndpointComputesSubset: a worker answers a matrix shard
// with exactly the requested cells, indices preserved from the full
// expansion, and reuses its per-cell cache across overlapping shards.
func TestShardEndpointComputesSubset(t *testing.T) {
	w, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"kind":"matrix","matrix":%s,"cells":[1,4]}`, distMatrixJSON)
	resp, b := postJSON(t, ts.URL+"/v1/shards", body)
	if resp.StatusCode != 200 {
		t.Fatalf("%d: %s", resp.StatusCode, b)
	}
	var sr shardMatrixResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Cells) != 2 || sr.Cells[0].Index != 1 || sr.Cells[1].Index != 4 {
		t.Fatalf("shard cells: %+v", sr.Cells)
	}
	if got := w.Stats().MatrixCells; got != 2 {
		t.Fatalf("worker simulated %d cells, want 2", got)
	}
	// An overlapping shard only simulates the new cell.
	body = fmt.Sprintf(`{"kind":"matrix","matrix":%s,"cells":[1,2]}`, distMatrixJSON)
	if resp, b = postJSON(t, ts.URL+"/v1/shards", body); resp.StatusCode != 200 {
		t.Fatalf("%d: %s", resp.StatusCode, b)
	}
	if got := w.Stats().MatrixCells; got != 3 {
		t.Fatalf("worker simulated %d cells after overlap, want 3", got)
	}
}
