package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/report"
	"tegrecon/internal/sim"
)

// newTestServer returns a small-bounded server and its HTTP front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
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

// shortRun is a fast but real request: the delivery cycle capped at
// 6 s (13 control periods) on a 20-module rig under INOR.
const shortRun = `{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20}`

func TestRegistryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var schemes struct {
		Schemes []struct{ Name, Description string } `json:"schemes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&schemes); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range schemes.Schemes {
		names = append(names, s.Name)
		if s.Description == "" {
			t.Errorf("scheme %s served without description", s.Name)
		}
	}
	if !reflect.DeepEqual(names, sim.SchemeNames()) {
		t.Fatalf("/v1/schemes = %v, want registry %v", names, sim.SchemeNames())
	}

	resp, err = http.Get(ts.URL + "/v1/cycles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cycles struct {
		Cycles []struct {
			Name      string  `json:"name"`
			DurationS float64 `json:"duration_s"`
		} `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cycles); err != nil {
		t.Fatal(err)
	}
	if len(cycles.Cycles) != len(drive.CycleNames()) {
		t.Fatalf("/v1/cycles served %d cycles, registry has %d", len(cycles.Cycles), len(drive.CycleNames()))
	}

	// Method discipline: the mux enforces verbs.
	resp, _ = postJSON(t, ts.URL+"/v1/schemes", "{}")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/schemes = %d", resp.StatusCode)
	}
}

func TestRunEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/runs", shortRun)
	if resp.StatusCode != 200 {
		t.Fatalf("run failed: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if resp.Header.Get("X-Cache-Key") == "" {
		t.Error("no X-Cache-Key header")
	}
	res, err := report.UnmarshalResult(body)
	if err != nil {
		t.Fatalf("response is not a versioned result: %v\n%s", err, body)
	}
	if res.Scheme != "INOR" {
		t.Errorf("scheme = %q", res.Scheme)
	}
	if res.EnergyOutJ <= 0 {
		t.Errorf("energy = %g, want > 0", res.EnergyOutJ)
	}
	if len(res.Ticks) != 0 {
		t.Errorf("summary response carried %d ticks", len(res.Ticks))
	}

	// "ticks": true includes the per-period records: 6 s / 0.5 s + 1.
	resp, body = postJSON(t, ts.URL+"/v1/runs", `{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20,"ticks":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("ticks run failed: %d %s", resp.StatusCode, body)
	}
	res, err = report.UnmarshalResult(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ticks) != 13 {
		t.Errorf("got %d ticks, want 13", len(res.Ticks))
	}

	// Bad requests come back 400 with a JSON error.
	for _, bad := range []string{
		`{"cycle":"nope","scheme":"inor"}`,
		`{"cycle":"delivery"}`,
		`{"cycle":"delivery","scheme":"inor","unknown_knob":1}`,
		`not json`,
	} {
		resp, body := postJSON(t, ts.URL+"/v1/runs", bad)
		if resp.StatusCode != 400 {
			t.Errorf("bad request %q = %d %s", bad, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("bad request %q: error body %s", bad, body)
		}
	}
}

// TestRunCacheBitIdentical is the cache contract: a cached response
// is byte-identical to the fresh computation — across repeats on one
// server and across server instances.
func TestRunCacheBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp1, fresh := postJSON(t, ts.URL+"/v1/runs", shortRun)
	resp2, cached := postJSON(t, ts.URL+"/v1/runs", shortRun)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d/%d", resp1.StatusCode, resp2.StatusCode)
	}
	if resp1.Header.Get("X-Cache") != "miss" || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache %q then %q, want miss then hit",
			resp1.Header.Get("X-Cache"), resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(fresh, cached) {
		t.Fatal("cached response differs from fresh computation")
	}
	// A second, cold server computes the identical bytes from scratch.
	_, ts2 := newTestServer(t, Config{})
	resp3, fresh2 := postJSON(t, ts2.URL+"/v1/runs", shortRun)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold server X-Cache = %q", resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(fresh, fresh2) {
		t.Fatal("two independent computations disagree — determinism broken")
	}
}

// TestRetiredRuntimeFieldRefused pins the retirement of the
// deterministic_runtime request field: every run and session prices
// controller runtime from counted work, so a client still sending the
// field (either value) gets a 400 that names it, not a silently
// different accounting.
func TestRetiredRuntimeFieldRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ path, body string }{
		{"/v1/runs", `{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20,"deterministic_runtime":false}`},
		{"/v1/runs", `{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20,"deterministic_runtime":true}`},
		{"/v1/sessions", `{"scheme":"dnor","modules":20,"deterministic_runtime":true}`},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: %d %s", c.path, c.body, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "deterministic_runtime") {
			t.Errorf("%s: error does not name the field: %s", c.path, body)
		}
	}
}

// TestServerCacheEviction drives the LRU through the HTTP surface: a
// 1-entry cache forgets a run as soon as a different one lands.
func TestServerCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 1})
	other := `{"cycle":"delivery","scheme":"baseline","duration_s":6,"modules":20}`
	r1, _ := postJSON(t, ts.URL+"/v1/runs", shortRun)
	r2, _ := postJSON(t, ts.URL+"/v1/runs", other) // evicts shortRun
	r3, _ := postJSON(t, ts.URL+"/v1/runs", shortRun)
	for i, want := range []struct {
		resp *http.Response
		st   string
	}{{r1, "miss"}, {r2, "miss"}, {r3, "miss"}} {
		if got := want.resp.Header.Get("X-Cache"); got != want.st {
			t.Errorf("request %d X-Cache = %q, want %q", i+1, got, want.st)
		}
	}
}

// TestConcurrentClientsOneComputation: N clients ask for the same
// sweep at once; the flight group coalesces them onto one computation
// and everyone receives identical bytes. Run under -race in CI.
func TestConcurrentClientsOneComputation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 8
	body := `{"cycles":["delivery"],"schemes":["baseline","inor"],"max_duration_s":6,"modules":20}`
	var wg sync.WaitGroup
	payloads := make([][]byte, n)
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			payloads[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if statuses[i] != 200 {
			t.Fatalf("client %d: status %d: %s", i, statuses[i], payloads[i])
		}
		if !bytes.Equal(payloads[i], payloads[0]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
	if got := s.met.computations.Load(); got != 1 {
		t.Errorf("computations = %d, want 1 for %d identical clients", got, n)
	}
	if got := s.met.sweeps.Load(); got != n {
		t.Errorf("sweeps accepted = %d, want %d", got, n)
	}
	// The sweep payload is the versioned table envelope.
	var env struct {
		Version int           `json:"version"`
		Table   *report.Table `json:"table"`
	}
	if err := json.Unmarshal(payloads[0], &env); err != nil || env.Version != report.ResultVersion || env.Table == nil {
		t.Fatalf("sweep envelope: %v %s", err, payloads[0])
	}
	if err := env.Table.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRunStream drives the SSE path: start, one tick per control
// period, and a terminal summary whose payload matches the non-stream
// result for the same request.
func TestRunStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var names []string
	ticks := 0
	var summary []byte
	err = DecodeEvents(resp.Body, func(ev Event) error {
		switch ev.Name {
		case "tick":
			ticks++
		case "summary":
			summary = append([]byte(nil), ev.Data...)
		}
		if len(names) == 0 || names[len(names)-1] != ev.Name {
			names = append(names, ev.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"start", "tick", "summary"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("event shape %v, want %v", names, want)
	}
	if ticks != 13 {
		t.Errorf("streamed %d ticks, want 13", ticks)
	}
	if _, err := report.UnmarshalResult(summary); err != nil {
		t.Fatalf("summary is not a versioned result: %v", err)
	}
	// The streamed summary back-fills the cache for non-stream clients.
	resp2, body := postJSON(t, ts.URL+"/v1/runs", shortRun)
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-stream X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(summary, bytes.TrimSuffix(body, []byte{'\n'})) {
		t.Error("streamed summary differs from cached non-stream payload")
	}
	// Accept: text/event-stream selects streaming without the body
	// flag — and gets identical treatment: even with "ticks": true the
	// summary stays tick-free (the ticks already traveled as events).
	req, _ := http.NewRequest("POST", ts.URL+"/v1/runs",
		strings.NewReader(`{"cycle":"delivery","scheme":"inor","duration_s":6,"modules":20,"ticks":true}`))
	req.Header.Set("Accept", "text/event-stream")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if ct := resp3.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Accept-negotiated Content-Type = %q", ct)
	}
	err = DecodeEvents(resp3.Body, func(ev Event) error {
		if ev.Name != "summary" {
			return nil
		}
		res, err := report.UnmarshalResult(ev.Data)
		if err != nil {
			return err
		}
		if len(res.Ticks) != 0 {
			t.Errorf("Accept-header stream buffered %d ticks into the summary", len(res.Ticks))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz body: %v %+v", err, health)
	}

	// One run, then the counters must reflect it.
	postJSON(t, ts.URL+"/v1/runs", shortRun)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	metrics := string(b)
	for _, want := range []string{
		"tegserve_ticks_total 13",
		"tegserve_runs_total 1",
		"tegserve_computations_total 1",
		"tegserve_cache_misses_total 1",
		"tegserve_queue_depth 0",
		"tegserve_active_sessions 0",
		"tegserve_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Draining flips healthz to 503.
	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d", resp.StatusCode)
	}
	// And new jobs are refused.
	respRun, _ := postJSON(t, ts.URL+"/v1/runs", shortRun)
	if respRun.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining run = %d", respRun.StatusCode)
	}
}

// TestQueueSheddingHTTP holds the single execution slot, queues one
// waiter to fill the 1-deep wait queue, then proves every endpoint that
// runs simulation work — runs and run streams, sweeps, matrices and
// matrix streams, shards, checkpoint restores and twin steps — is shed
// with 503 + Retry-After, and that the waiter still completes once the
// slot frees.
func TestQueueSheddingHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1})
	// A twin and its checkpoint, made while the slot is free (creating a
	// fresh session and fetching a checkpoint are not jobs).
	id := createSession(t, ts.URL, `{"scheme":"inor","modules":10}`).Session.ID
	stepSession(t, ts.URL, id, `{"cycle":"delivery","ticks":2}`)
	restore, err := json.Marshal(map[string]json.RawMessage{"from_checkpoint": getCheckpoint(t, ts.URL, id)})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot directly (white box): deterministic, no
	// timing games with a real long run.
	if err := s.q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queue one waiter over HTTP; it blocks inside acquire.
	waiter := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(shortRun))
		if err != nil {
			waiter <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		waiter <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.q.depth() == 1 })

	// Every further job is shed. Each body is a distinct cache miss, so
	// none is answered without claiming a slot.
	matrix := `{"cycles":[{"synth":{"profile":"urban","seed":9,"duration_s":6}}],"schemes":["INOR"],"array_sizes":[20],"max_duration_s":6`
	cases := []struct{ name, path, body string }{
		{"run", "/v1/runs", `{"cycle":"delivery","scheme":"ehtr","duration_s":6,"modules":20}`},
		{"run stream", "/v1/runs", `{"cycle":"delivery","scheme":"dnor","duration_s":6,"modules":20,"stream":true}`},
		{"sweep", "/v1/sweeps", `{"cycles":["delivery"],"schemes":["inor"],"max_duration_s":6,"modules":20}`},
		{"matrix", "/v1/matrix", matrix + `}`},
		{"matrix stream", "/v1/matrix", matrix + `,"seed":3,"stream":true}`},
		{"shard", "/v1/shards", `{"kind":"matrix","matrix":` + matrix + `},"cells":[0]}`},
		{"restore", "/v1/sessions", string(restore)},
		{"step", "/v1/sessions/" + id + "/step", `{"cycle":"delivery"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("over-capacity request = %d %s", resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("shed response has no Retry-After")
			}
		})
	}
	s.q.release() // free the slot; the waiter runs to completion
	if status := <-waiter; status != 200 {
		t.Fatalf("queued waiter finished with %d", status)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func ExampleServer_schemes() {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out struct {
		Schemes []struct {
			Name string `json:"name"`
		} `json:"schemes"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	for _, sch := range out.Schemes {
		fmt.Println(sch.Name)
	}
	// Output:
	// Baseline
	// INOR
	// DNOR
	// EHTR
}
