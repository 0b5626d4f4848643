package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/trace"
)

// sessionResponse decodes the "session" object every session endpoint
// embeds.
type sessionResponse struct {
	Session struct {
		ID           string  `json:"id"`
		Scheme       string  `json:"scheme"`
		Modules      int     `json:"modules"`
		Steps        int     `json:"steps"`
		NowS         float64 `json:"now_s"`
		EnergyOutJ   float64 `json:"energy_out_j"`
		OverheadJ    float64 `json:"overhead_j"`
		SwitchEvents int     `json:"switch_events"`
		AvgTEGEff    float64 `json:"avg_teg_eff"`
		BatteryJ     float64 `json:"battery_j"`
	} `json:"session"`
	TicksApplied int `json:"ticks_applied"`
}

func createSession(t *testing.T, url, body string) sessionResponse {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, b)
	}
	var sr sessionResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Session.ID == "" {
		t.Fatalf("create returned no id: %s", b)
	}
	return sr
}

func stepSession(t *testing.T, url, id, body string) sessionResponse {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/sessions/"+id+"/step", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step: %d %s", resp.StatusCode, b)
	}
	var sr sessionResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func getCheckpoint(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/sessions/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, b)
	}
	return b
}

// TestSessionLifecycle drives the whole surface once: create, step
// from a named cycle, step with explicit conditions, summary, list,
// delete, 404 after delete.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	sr := createSession(t, ts.URL, `{"scheme":"inor","modules":20}`)
	id := sr.Session.ID
	if sr.Session.Scheme != "INOR" || sr.Session.Modules != 20 || sr.Session.Steps != 0 {
		t.Fatalf("unexpected create summary: %+v", sr.Session)
	}

	sr = stepSession(t, ts.URL, id, `{"cycle":"delivery","ticks":8}`)
	if sr.TicksApplied != 8 || sr.Session.Steps != 8 {
		t.Fatalf("cycle step applied %d, session at %d", sr.TicksApplied, sr.Session.Steps)
	}
	if sr.Session.EnergyOutJ <= 0 {
		t.Fatalf("no energy after 8 ticks: %+v", sr.Session)
	}

	sr = stepSession(t, ts.URL, id,
		`{"conditions":[{"coolant_inlet_c":90,"coolant_flow_kgs":0.12,"air_inlet_c":25,"air_flow_kgs":0.4}]}`)
	if sr.Session.Steps != 9 {
		t.Fatalf("conditions step left session at %d, want 9", sr.Session.Steps)
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var got sessionResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || got.Session.Steps != 9 {
		t.Fatalf("summary: %v %+v", err, got.Session)
	}

	resp, err = http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Sessions) != 1 {
		t.Fatalf("list: %v, %d sessions", err, len(list.Sessions))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session answered %d, want 404", gresp.StatusCode)
	}
}

// TestSessionCheckpointRestoreOverHTTP is the serve-layer half of the
// checkpoint golden: a session stepped partway, checkpointed over the
// API, restored into a *different* server and stepped to the end must
// land on the identical summary (energy, overhead, switch counts) as
// an uninterrupted twin fed the same schedule — and the restored
// session's checkpoint must equal the uninterrupted one's byte for
// byte, the end-to-end bit-exactness proof. It restores the checkpoint
// as served, and again with the batch-width "workers" option that
// older builds wrote into every checkpoint: decoding ignores the
// retired field, so such a checkpoint replays bit-identically too.
func TestSessionCheckpointRestoreOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const create = `{"scheme":"dnor","modules":20,"battery":true}`

	ref := createSession(t, ts.URL, create)
	stepSession(t, ts.URL, ref.Session.ID, `{"cycle":"delivery","ticks":40}`)
	refCk := getCheckpoint(t, ts.URL, ref.Session.ID)

	split := createSession(t, ts.URL, create)
	stepSession(t, ts.URL, split.Session.ID, `{"cycle":"delivery","ticks":17}`)
	ck := getCheckpoint(t, ts.URL, split.Session.ID)
	legacy := bytes.Replace(ck, []byte(`"options":{`), []byte(`"options":{"workers":1,`), 1)
	if bytes.Equal(legacy, ck) {
		t.Fatal("checkpoint carries no options object to splice into")
	}

	for name, ck := range map[string][]byte{"current": ck, "with workers": legacy} {
		// Restore on a second, fresh server — nothing but the
		// checkpoint payload crosses.
		_, ts2 := newTestServer(t, Config{})
		body, _ := json.Marshal(map[string]json.RawMessage{"from_checkpoint": ck})
		resp, b := postJSON(t, ts2.URL+"/v1/sessions", string(body))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s: restore: %d %s", name, resp.StatusCode, b)
		}
		var restored sessionResponse
		if err := json.Unmarshal(b, &restored); err != nil {
			t.Fatal(err)
		}
		if restored.Session.Steps != 17 || restored.Session.Scheme != "DNOR" {
			t.Fatalf("%s: restored summary: %+v", name, restored.Session)
		}
		stepSession(t, ts2.URL, restored.Session.ID, `{"cycle":"delivery","ticks":23}`)
		gotCk := getCheckpoint(t, ts2.URL, restored.Session.ID)
		if string(gotCk) != string(refCk) {
			t.Fatalf("%s: restored twin's checkpoint differs from the uninterrupted one's:\nrestored: %.200s…\nreference: %.200s…", name, gotCk, refCk)
		}
	}
}

// TestSessionCreateRejects pins the create path's validation.
func TestSessionCreateRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"missing scheme":         `{}`,
		"unknown scheme":         `{"scheme":"nope"}`,
		"bad modules":            `{"scheme":"inor","modules":100000}`,
		"horizon over the bound": `{"scheme":"dnor","horizon_ticks":10001}`,
		"noise over the bound":   `{"scheme":"dnor","sensor_noise_c":51}`,
		"checkpoint plus fields": `{"scheme":"inor","from_checkpoint":{"version":1}}`,
		"garbage checkpoint":     `{"from_checkpoint":{"not":"a checkpoint"}}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/sessions", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, resp.StatusCode, b)
		}
	}

	// A wrong-version checkpoint must be rejected naming the version
	// actually found.
	resp, b := postJSON(t, ts.URL+"/v1/sessions", `{"from_checkpoint":{"version":9,"checkpoint":{}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("version 9 checkpoint: %d %s", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "version 9") {
		t.Fatalf("error does not name the found version: %s", b)
	}
}

// TestSessionStepRejects pins the step path's validation.
func TestSessionStepRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTicksPerJob: 50})
	id := createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`).Session.ID
	for name, body := range map[string]string{
		"no source":         `{}`,
		"two sources":       `{"cycle":"delivery","csv":"t,x\n0,1\n"}`,
		"ticks with conds":  `{"conditions":[{"coolant_inlet_c":90,"coolant_flow_kgs":0.1,"air_inlet_c":25,"air_flow_kgs":0.4}],"ticks":2}`,
		"over tick limit":   `{"cycle":"delivery","ticks":51}`,
		"unknown cycle":     `{"cycle":"nope"}`,
		"invalid condition": `{"conditions":[{"coolant_inlet_c":-500,"coolant_flow_kgs":0.1,"air_inlet_c":25,"air_flow_kgs":0.4}]}`,
		"bad csv":           `{"csv":"not a trace"}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s", name, resp.StatusCode, b)
		}
	}
	resp, b := postJSON(t, ts.URL+"/v1/sessions/tw-none/step", `{"cycle":"delivery"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: %d %s", resp.StatusCode, b)
	}
}

// TestSessionRestoreDrawBounds pins the two guards on a checkpoint's
// claimed RNG position — the restore cost an attacker controls:
// rng_draws over the server's absolute MaxRestoreDraws cap is refused
// before any replay work, and a forged position beyond what the
// checkpoint's own steps×modules can explain is rejected by the sim
// layer even when it is under the cap.
func TestSessionRestoreDrawBounds(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`).Session.ID
	stepSession(t, ts.URL, id, `{"cycle":"delivery","ticks":4}`) // 40 genuine draws
	ck := getCheckpoint(t, ts.URL, id)
	body, _ := json.Marshal(map[string]json.RawMessage{"from_checkpoint": ck})

	_, ts2 := newTestServer(t, Config{MaxRestoreDraws: 10})
	resp, b := postJSON(t, ts2.URL+"/v1/sessions", string(body))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "restore cap") {
		t.Fatalf("over-cap restore: %d %s", resp.StatusCode, b)
	}

	var env map[string]any
	if err := json.Unmarshal(ck, &env); err != nil {
		t.Fatal(err)
	}
	env["checkpoint"].(map[string]any)["rng_draws"] = 999999.0
	forged, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(map[string]json.RawMessage{"from_checkpoint": forged})
	resp, b = postJSON(t, ts.URL+"/v1/sessions", string(body))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "exceeds") {
		t.Fatalf("forged rng position: %d %s", resp.StatusCode, b)
	}
}

// TestSessionConcurrentCycleStepContiguity pins the drive-source
// contiguity contract under contention: concurrent cycle batches on one
// session must sample the source at the clock position their steps
// actually run from (one continuous hold of the session lock), so any
// interleaving of 8×5-tick batches lands on the same state as one
// sequential 40-tick walk — checkpoint-for-checkpoint identical.
func TestSessionConcurrentCycleStepContiguity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const create = `{"scheme":"inor","modules":10}`
	ref := createSession(t, ts.URL, create).Session.ID
	stepSession(t, ts.URL, ref, `{"cycle":"delivery","ticks":40}`)
	refCk := getCheckpoint(t, ts.URL, ref)

	id := createSession(t, ts.URL, create).Session.ID
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/step",
				"application/json", strings.NewReader(`{"cycle":"delivery","ticks":5}`))
			if err != nil {
				errs <- err.Error()
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("step: %d %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if gotCk := getCheckpoint(t, ts.URL, id); string(gotCk) != string(refCk) {
		t.Fatalf("concurrent batches diverged from the sequential walk:\nconcurrent: %.200s…\nsequential: %.200s…", gotCk, refCk)
	}
}

// TestSessionRegistryCapAndEviction pins the registry bounds: creates
// beyond MaxSessions shed with 503, and idle sessions are evicted on
// the next create, freeing their slots.
func TestSessionRegistryCapAndEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 2, SessionIdleTTL: 50 * time.Millisecond})
	a := createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`)
	createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`)

	resp, b := postJSON(t, ts.URL+"/v1/sessions", `{"scheme":"baseline","modules":10}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create over cap: %d %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Past the TTL both idle sessions are evicted by the next create's
	// sweep, so it succeeds — and the old ids are gone.
	time.Sleep(60 * time.Millisecond)
	createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`)
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + a.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session answered %d, want 404", gresp.StatusCode)
	}
	if st := srv.Stats(); st.SessionsEvicted < 2 || st.TwinSessions != 1 {
		t.Fatalf("eviction accounting: %+v", st)
	}
}

// TestSessionDrainSeal pins the drain semantics: a draining server
// refuses further steps (the twin is sealed) but still serves the
// session's summary and checkpoint, so clients can move their state
// off the instance during the grace window.
func TestSessionDrainSeal(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, `{"scheme":"ehtr","modules":10}`)
	stepSession(t, ts.URL, sr.Session.ID, `{"cycle":"delivery","ticks":5}`)

	srv.Drain()

	resp, b := postJSON(t, ts.URL+"/v1/sessions/"+sr.Session.ID+"/step", `{"cycle":"delivery"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step while draining: %d %s", resp.StatusCode, b)
	}
	ck := getCheckpoint(t, ts.URL, sr.Session.ID)
	if !strings.Contains(string(ck), `"version":1`) {
		t.Fatalf("checkpoint unavailable while draining: %.120s", ck)
	}
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + sr.Session.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("summary while draining: %d", gresp.StatusCode)
	}
	resp, b = postJSON(t, ts.URL+"/v1/sessions", `{"scheme":"baseline","modules":10}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: %d %s", resp.StatusCode, b)
	}
}

// TestSessionConcurrentStepAndMarshal is the -race regression for the
// result-aliasing fix: one goroutine steps the session in small
// batches while others hammer the summary and checkpoint endpoints,
// which marshal the (cloned) result. Before Result().Clone() the
// marshal walked the same Ticks slice the stepper was appending to.
func TestSessionConcurrentStepAndMarshal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, `{"scheme":"inor","modules":10,"ticks":true}`).Session.ID

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			stepSession(t, ts.URL, id, `{"cycle":"delivery","ticks":5}`)
		}
		close(stop)
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				getCheckpoint(t, ts.URL, id)
				resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// TestRetryAfterDerivation pins the 503 Retry-After contract under a
// saturated queue: the advice is queue depth × p90 job time from the
// latency histogram, clamped to [1, 30] — not the old hardcoded 1 s.
func TestRetryAfterDerivation(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: -1, MaxSessions: 4})

	// Teach the server a single 2 s job and fake a 10-deep queue. The
	// observation lands in the (1, 2.5] histogram bucket, where the p90
	// interpolates to 1 + 0.9×1.5 = 2.35 s, so the derivation should
	// advise ceil(10 × 2.35) = 24 s.
	srv.met.jobHist.ObserveDuration(2 * time.Second)
	srv.q.waiting.Add(10)
	if got := srv.retryAfterSeconds(); got != 24 {
		t.Fatalf("retryAfterSeconds() = %d, want 24", got)
	}
	// Clamps: a huge backlog caps at 30 s, an empty queue floors at 1 s.
	srv.q.waiting.Add(100)
	if got := srv.retryAfterSeconds(); got != 30 {
		t.Fatalf("deep-queue advice = %d, want 30", got)
	}
	srv.q.waiting.Add(-110)
	if got := srv.retryAfterSeconds(); got != 1 {
		t.Fatalf("empty-queue advice = %d, want 1", got)
	}

	// End to end: saturate the single execution slot so a step request
	// is shed, and check the header carries the derived value.
	srv.q.waiting.Add(5) // 5 waiters × 2.35 s p90 → 12 s advice
	if err := srv.q.acquire(t.Context()); err != nil {
		t.Fatal(err)
	}
	defer func() { srv.q.waiting.Add(-5); srv.q.release() }()

	id := createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`).Session.ID
	resp, b := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", `{"cycle":"delivery"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("step with saturated queue: %d %s", resp.StatusCode, b)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	// The live header sees depth 5 (+ this request's own brief wait):
	// anything in [10, 30] proves the derivation ran; exactly 1 with a
	// 2.35 s p90 and 5 waiters would be the old hardcoded bug.
	if ra < 10 || ra > 30 {
		t.Fatalf("Retry-After = %d, want the derived 10..30", ra)
	}
}

// TestSessionCycleExhaustion pins the drive-source clock contract: a
// twin that has walked past the end of a cycle gets a 400, not a 500.
func TestSessionCycleExhaustion(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTicksPerJob: 2000})
	id := createSession(t, ts.URL, `{"scheme":"baseline","modules":10}`).Session.ID
	// The delivery cycle is short; walk to its end, then one more.
	sr := stepSession(t, ts.URL, id, fmt.Sprintf(`{"cycle":"delivery","ticks":%d}`, 1200))
	resp, b := postJSON(t, ts.URL+"/v1/sessions/"+id+"/step", `{"cycle":"delivery","ticks":2000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stepping past the cycle end: %d %s (twin at %g s)", resp.StatusCode, b, sr.Session.NowS)
	}
}

// TestCycleStepSharesOneSynthesizedTrace pins the named-cycle step
// source: concurrent steps through one cycle, under any spelling of its
// name, share a single trace equal to a fresh synthesis under the
// default config, while a CSV source still builds its own.
func TestCycleStepSharesOneSynthesizedTrace(t *testing.T) {
	s := New(Config{})
	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), cycle.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"wltc", "WLTC", "Wltc", "wltc"}
	got := make([]*trace.Trace, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, herr := s.parseStepSource(SessionStepRequest{Cycle: name, Ticks: 3})
			if herr != nil {
				t.Errorf("%s: %v", name, herr)
				return
			}
			got[i] = src.tr
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, tr := range got {
		if tr != got[0] {
			t.Fatalf("step %d (%q) got its own trace", i, names[i])
		}
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("shared cycle trace differs from a fresh synthesis")
	}

	const csv = "time_s,speed_kph\n0,0\n10,30\n20,50\n"
	a, herr := s.parseStepSource(SessionStepRequest{CSV: csv})
	if herr != nil {
		t.Fatal(herr)
	}
	b, herr := s.parseStepSource(SessionStepRequest{CSV: csv})
	if herr != nil {
		t.Fatal(herr)
	}
	if a.tr == b.tr {
		t.Fatal("CSV sources share a trace")
	}
}
