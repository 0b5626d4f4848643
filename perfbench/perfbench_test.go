package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinyScale runs every workload end to end in well under a second of
// measurement each.
var tinyScale = scale{
	setupReps:  1,
	warmKeys:   48,
	zipfRate:   400,
	checkRuns:  4,
	checkSteps: 2,
	checkGrid:  2,
	libTicks:   8,
	bisect:     1,
	trialS:     0.2,
}

func tinyConfig(t *testing.T) config {
	return config{seed: 3, seconds: 0.3, dir: t.TempDir(), sc: tinyScale}
}

func TestSeedDeterminesRequests(t *testing.T) {
	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	list := func(seed int64) string {
		var out []string
		for i := 0; i < 16; i++ {
			_, _, _, body, err := gridRequest(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, marshal(runRequest(seed, i)), string(body), marshal(replayKey(seed, i)), marshal(twinSeed(seed, i)))
		}
		offsets, keys := replayDraws(seed, 1024, 2000, time.Second)
		return marshal(out) + marshal(offsets) + marshal(keys)
	}
	if list(7) != list(7) {
		t.Fatal("the same seed generated different requests")
	}
	if list(7) == list(8) {
		t.Fatal("different seeds generated the same requests")
	}
	offsets, keys := replayDraws(7, 1024, 2000, time.Second)
	if n := len(offsets); n < 1800 || n > 2200 {
		t.Fatalf("%d Poisson arrivals in 1 s at 2000/s", n)
	}
	counts := map[int]int{}
	for _, k := range keys {
		if k < 0 || k >= 1024 {
			t.Fatalf("key rank %d outside the working set", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Fatalf("key draws are not Zipf-skewed: rank 0 %d, 10 %d, 500 %d", counts[0], counts[10], counts[500])
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := pct(xs, c.p); got != c.want {
			t.Errorf("pct(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("pct reordered its input: %v", xs)
	}
	if got := pct(nil, 50); got != 0 {
		t.Errorf("pct of an empty sample = %g, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestOpenLoopChargesStall injects a 50 ms stall that blocks the whole
// server: requests due while it lasts must be charged the wait from
// their due time, not from when a sender got round to them.
func TestOpenLoopChargesStall(t *testing.T) {
	const stalled = 20
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.Header.Get("X-Request-ID") == "stall" {
			time.Sleep(50 * time.Millisecond)
		}
		mu.Unlock()
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	offsets := make([]time.Duration, 200) // 1000 requests per second
	for i := range offsets {
		offsets[i] = time.Duration(i) * time.Millisecond
	}
	samples := openLoop(2, time.Now().Add(10*time.Millisecond), offsets, func(i int, s *sample) {
		rid := ""
		if i == stalled {
			rid = "stall"
		}
		resp, err := do(c, http.MethodGet, srv.URL, rid, nil)
		s.done, s.err = resp.done, err
	})
	stallEnd := samples[stalled].done
	charged := 0
	for _, s := range samples[stalled+5 : stalled+40] {
		if s.err != nil {
			t.Fatal(s.err)
		}
		owed := float64(stallEnd.Sub(s.due).Nanoseconds()) / 1e6
		if s.latencyMs() < owed-1 {
			t.Errorf("request %d due %.1f ms before the stall ended reports %.2f ms", s.idx, owed, s.latencyMs())
		}
		if s.latencyMs() > 10 {
			charged++
		}
	}
	if charged < 25 {
		t.Errorf("only %d of the 35 requests queued behind the stall were charged for it", charged)
	}
	late, backlog, _ := latenessStats(samples)
	if late < 20 || backlog < 20 {
		t.Errorf("generator lateness p99 %.1f ms, backlog %d: the stall did not show", late, backlog)
	}
}

// flipDigit corrupts one byte of every response: the first digit of the
// first energy_out_j value, which every workload's responses carry.
func flipDigit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if i := bytes.Index(body, []byte(`"energy_out_j":`)); i >= 0 {
			j := i + len(`"energy_out_j":`)
			if body[j] >= '0' && body[j] <= '9' {
				body[j] = '0' + (body[j]-'0'+1)%10
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

func TestChecksCatchOneFlippedByte(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t)
			cfg.wrap = flipDigit
			o, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.ok)+o.failed == 0 {
				t.Fatal("no requests were sent")
			}
			if len(o.checks) == 0 && o.failed == 0 {
				t.Fatal("a flipped response byte passed every check")
			}
		})
	}
}

// TestWorkloadsSmoke runs all four workloads at tiny scale, measured and
// traced, and checks that each reports every metric BENCHMARK.json
// names and passes its own correctness checks.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := readBenchSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tinyConfig(t)
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("measured run: correct %v, attempted %d: %v", res.Correct, res.Attempted, res.CheckFailures)
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v", m.Name, got)
				}
			}
			measuredDigest := res.OutputDigest

			cfg.spansPath = filepath.Join(t.TempDir(), "spans.json")
			res, err = runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed its checks: %v", res.CheckFailures)
			}
			if res.OutputDigest != measuredDigest {
				t.Error("the same seed produced a different output digest")
			}
			if len(res.Metrics) != len(spec.PerLayer) {
				t.Errorf("traced run reports %d metrics, BENCHMARK.json names %d per-layer ones", len(res.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if f := res.Metrics["core.decide_us_mean.inor"].Value; !(f > 0) {
				t.Errorf("library replay timed no INOR decide (%g)", f)
			}
			b, err := os.ReadFile(cfg.spansPath)
			if err != nil {
				t.Fatal(err)
			}
			var spans struct{ Spans []span }
			if err := json.Unmarshal(b, &spans); err != nil || len(spans.Spans) == 0 {
				t.Fatalf("spans file: %d spans, %v", len(spans.Spans), err)
			}
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// describing the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Errorf("BENCHMARK.json workloads %v, program %s", names, got)
	}
	e2e := (&outcome{window: time.Second}).endToEnd()
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json names %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: program has %+v, want unit %s", m.Name, got, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var want []specMetric
	for _, m := range perLayer {
		want = append(want, specMetric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !reflect.DeepEqual(spec.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", "within bound"},
		{"slower", []float64{120, 121, 119, 120, 120}, "lower", "REGRESSED"},
		{"faster", []float64{80, 81, 79, 80, 80}, "lower", "improved"},
		{"fewer per second", []float64{80, 81, 79, 80, 80}, "higher", "REGRESSED"},
		{"noisy", []float64{60, 140, 100, 70, 130}, "lower", "unresolved"},
	} {
		if got := verdict(steady, c.b, c.better, &bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if got := verdict(steady, steady, "lower", nil); got != "" {
		t.Errorf("per-layer metric judged %q", got)
	}
}

func TestCompareFlagsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, digest string, p50 float64) string {
		doc := document{Results: []result{{Workload: "runs_n100", Seed: 1, Correct: true, OutputDigest: digest,
			Metrics: map[string]metric{"req_ms_p50": {p50, "ms"}}}}}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	ok, err := runCompare(&out, "../BENCHMARK.json", []string{write("a.json", "x", 10)}, []string{write("b.json", "x", 10.1)})
	if err != nil || !ok {
		t.Fatalf("identical sets: ok %v, err %v\n%s", ok, err, out.String())
	}
	ok, err = runCompare(&out, "../BENCHMARK.json", []string{write("a.json", "x", 10)}, []string{write("b.json", "y", 10)})
	if err != nil || ok {
		t.Fatalf("digest mismatch passed: ok %v, err %v", ok, err)
	}
	a, b, err := splitSets([]string{"a1", "a2", "--", "b1"})
	if err != nil || !reflect.DeepEqual(a, []string{"a1", "a2"}) || !reflect.DeepEqual(b, []string{"b1"}) {
		t.Fatalf("splitSets: %v %v %v", a, b, err)
	}
	if _, _, err := splitSets([]string{"a1", "b1"}); err == nil {
		t.Fatal("splitSets accepted arguments without --")
	}
}

func TestLatenessStatsSteadyGenerator(t *testing.T) {
	start := time.Now()
	var samples []sample
	for i := 0; i < 100; i++ {
		due := start.Add(time.Duration(i) * time.Millisecond)
		samples = append(samples, sample{idx: i, due: due, sent: due, done: due.Add(100 * time.Microsecond)})
	}
	late, backlog, growing := latenessStats(samples)
	if late != 0 || backlog > 1 || growing {
		t.Fatalf("on-time generator: lateness %g ms, backlog %d, growing %v", late, backlog, growing)
	}
}

// TestScaledMetricsFollowHostSpeed runs half a window on a host at half
// speed: every request there takes twice as long, and scaled to
// reference speed the window must report one latency and one rate.
func TestScaledMetricsFollowHostSpeed(t *testing.T) {
	start := time.Now()
	// 500 requests in 5 s at full speed, then 500 in 10 s at half speed.
	o := &outcome{load: load{speeds: []float64{1, 0.5}, refS: 10}}
	for i := 0; i < 1000; i++ {
		lat, speed := 5*time.Millisecond, 1.0
		if i >= 500 {
			lat, speed = 10*time.Millisecond, 0.5
		}
		due := start.Add(time.Duration(i) * 10 * time.Millisecond)
		s := sample{idx: i, due: due, sent: due, done: due.Add(lat), speed: speed}
		o.ok, o.primary = append(o.ok, s), append(o.primary, s)
	}
	m := o.endToEnd()
	if p50, p90 := m["req_ms_p50"].Value, m["req_ms_p90"].Value; p50 != 5 || p90 != 5 {
		t.Errorf("p50 %g ms, p90 %g ms at reference speed, want 5 and 5", p50, p90)
	}
	if rate := m["req_per_s"].Value; rate != 100 {
		t.Errorf("rate %g/s at reference speed, want 100", rate)
	}
	if all := pct(o.latencies(), 90); all != 10 {
		t.Errorf("unscaled p90 %g ms, want the slow half's 10", all)
	}
}

func TestSegmentedStampsEverySample(t *testing.T) {
	if ms := calibrate(); !(ms > 0) {
		t.Fatalf("the reference kernel took %g ms", ms)
	}
	samples, l := segmented(20*time.Millisecond, func(d time.Duration) []sample {
		time.Sleep(d)
		return make([]sample, 3)
	})
	if len(samples) != 3 || len(l.speeds) != 1 || !(l.refS > 0) {
		t.Fatalf("%d samples, load %+v", len(samples), l)
	}
	for _, s := range samples {
		if s.speed != l.speeds[0] || !(s.speed > 0) {
			t.Fatalf("sample speed %g, segment speed %g", s.speed, l.speeds[0])
		}
	}
}
