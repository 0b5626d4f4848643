package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/serve"
	"tegrecon/internal/sim"
	"tegrecon/internal/trace"
)

// layerMetric is one per-layer metric of a traced run. A metric whose
// layer a workload does not exercise reads 0 there.
type layerMetric struct {
	name, unit, better string
}

// libSchemes are the reconfiguring schemes the library replay times;
// the core.* and sim.step_* metrics are per scheme, at the workload's
// array size (N=500 on twins_n500, N=100 elsewhere).
var libSchemes = []string{"inor", "dnor", "ehtr"}

var perLayer = func() []layerMetric {
	var out []layerMetric
	for _, s := range libSchemes {
		out = append(out,
			layerMetric{"core.decide_us_mean." + s, "us", "lower"},
			layerMetric{"core.decide_us_p99." + s, "us", "lower"},
			layerMetric{"core.switch_frac." + s, "frac", "lower"},
			layerMetric{"sim.step_self_us_mean." + s, "us", "lower"},
		)
	}
	return append(out, []layerMetric{
		{"sim.us_per_tick", "us", "lower"},
		{"sim.temps_frac", "frac", "lower"},
		{"sim.sense_frac", "frac", "lower"},
		{"sim.decide_frac", "frac", "lower"},
		{"sim.act_frac", "frac", "lower"},
		{"sim.engine_ms_mean", "ms", "lower"},
		{"sim.module_ticks_per_s", "module-ticks/s", "higher"},
		{"serve.handler_ms_mean", "ms", "lower"},
		{"serve.job_ms_mean", "ms", "lower"},
		{"serve.wait_ms_mean", "ms", "lower"},
		{"serve.queue_depth_mean", "count", "lower"},
		{"serve.payload_kb_mean", "KB", "lower"},
		{"http.transport_ms_mean", "ms", "lower"},
		{"serve.cache_hit_ratio", "frac", "higher"},
		{"serve.disk_hit_ratio", "frac", "lower"},
		{"serve.computations", "count", "lower"},
		{"store.puts", "count", "lower"},
		{"store.put_kb", "KB", "lower"},
		{"store.objects", "count", "lower"},
		{"store.evictions", "count", "lower"},
		{"scenario.expand_ms_mean", "ms", "lower"},
		{"scenario.cells_mean", "count", "higher"},
		{"shards.per_req", "count", "lower"},
		{"shards.rtt_ms_p50", "ms", "lower"},
		{"shards.rtt_ms_p90", "ms", "lower"},
		{"shards.kb_mean", "KB", "lower"},
		{"shards.retries", "count", "lower"},
		{"shards.speedup_vs_local", "ratio", "higher"},
		{"grid.cells_per_s", "cells/s", "higher"},
		{"grid.sweep_ms_p50", "ms", "lower"},
		{"grid.sweep_ms_p90", "ms", "lower"},
		{"runtime.gc_cpu_frac", "frac", "lower"},
		{"runtime.alloc_mb_per_s", "MB/s", "lower"},
		{"loadgen.samples", "count", "higher"},
		{"loadgen.req_ms_p99", "ms", "lower"},
		{"loadgen.late_ms_p99", "ms", "lower"},
		{"loadgen.backlog_max", "count", "lower"},
		{"loadgen.max_rps", "req/s", "higher"},
		{"trace.overhead_frac", "frac", "lower"},
		{"trace.accounted_frac", "frac", "higher"},
	}...)
}()

// --- spans ---

// span is one timed call across a layer boundary. Spans of one client
// request share its X-Request-ID as Trace.
type span struct {
	Trace  string `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

// spanLog keeps spans in memory until the run writes them out. A nil
// log records nothing, so untraced passes pay one nil check per call.
type spanLog struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.nextID.Add(1)
}

func (l *spanLog) record(id int64, trace string, parent int64, name string, start, end time.Time, bytes int) {
	if l == nil {
		return
	}
	s := span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds(), Bytes: bytes}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// --- server-side counters ---

// promSnap is one /metrics scrape: series (name plus labels) → value.
type promSnap map[string]float64

func scrape(c *http.Client, base string) (promSnap, error) {
	resp, err := do(c, http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	out := promSnap{}
	sc := bufio.NewScanner(bytes.NewReader(resp.body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// probe captures one server's counters before and after a traced pass:
// Stats always, /metrics when it has a url.
type probe struct {
	srv                 *serve.Server
	url                 string
	stBefore, stAfter   serve.Stats
	promBefore, promAft promSnap
}

func startProbe(c *http.Client, srv *serve.Server, url string) (*probe, error) {
	p := &probe{srv: srv, url: url, stBefore: srv.Stats()}
	var err error
	p.promBefore, err = scrape(c, url)
	return p, err
}

func (p *probe) finish(c *http.Client) error {
	p.stAfter = p.srv.Stats()
	if p.url == "" {
		return nil
	}
	var err error
	p.promAft, err = scrape(c, p.url)
	return err
}

// routeDelta sums a histogram's _sum and _count deltas over the
// successful responses of the given routes.
func (p *probe) routeDelta(hist string, routes ...string) (sum, count float64) {
	for _, route := range routes {
		for _, status := range []string{"200", "201"} {
			labels := fmt.Sprintf(`{route=%q,status=%q}`, route, status)
			sum += p.promAft[hist+"_sum"+labels] - p.promBefore[hist+"_sum"+labels]
			count += p.promAft[hist+"_count"+labels] - p.promBefore[hist+"_count"+labels]
		}
	}
	return sum, count
}

func (p *probe) delta(name string) float64 { return p.promAft[name] - p.promBefore[name] }

func (p *probe) stat(f func(serve.Stats) int64) float64 {
	return float64(f(p.stAfter) - f(p.stBefore))
}

// serveLayers derives the serve, http, sim, cache and store per-layer
// metrics from the probes (the front server first) and the client's own
// samples of the given routes. The four latency parts — transport,
// queue wait, engine and sampled tick phases — are each taken from
// their own source, so accounted_frac shows whether they add up to what
// the client saw.
func serveLayers(layer map[string]float64, probes []*probe, routes []string, samples []sample, modules int, window time.Duration) {
	front := probes[0]
	var lat, kb []float64
	for _, s := range samples {
		if s.err == nil {
			lat = append(lat, s.latencyMs())
			kb = append(kb, float64(s.bytes)/1024)
		}
	}
	client := mean(lat)
	hSum, hCount := front.routeDelta("http_request_seconds", routes...)
	jSum, jCount := front.delta("job_seconds_sum"), front.delta("job_seconds_count")
	handler, job := 0.0, 0.0
	if hCount > 0 {
		handler = hSum / hCount * 1e3
	}
	if jCount > 0 {
		job = jSum / jCount * 1e3
	}
	var ph sim.PhaseTimings
	ticks, computations := 0.0, 0.0
	for _, p := range probes {
		ph.Add(phaseDelta(p.stBefore.Phases, p.stAfter.Phases))
		ticks += p.stat(func(s serve.Stats) int64 { return s.Ticks })
		computations += p.stat(func(s serve.Stats) int64 { return s.Computations })
	}
	phase := 0.0
	if jCount > 0 {
		phase = float64(ph.TotalNs()) / 1e6 / jCount
	}
	transport, wait, engine := client-handler, handler-job, job-phase
	layer["serve.handler_ms_mean"] = handler
	layer["serve.job_ms_mean"] = job
	layer["serve.wait_ms_mean"] = wait
	layer["http.transport_ms_mean"] = transport
	layer["serve.payload_kb_mean"] = mean(kb)
	layer["sim.engine_ms_mean"] = engine
	if client > 0 {
		layer["trace.accounted_frac"] = (transport + wait + engine + phase) / client
	}
	if total := float64(ph.TotalNs()); total > 0 {
		layer["sim.us_per_tick"] = total / 1e3 / float64(ph.Samples)
		layer["sim.temps_frac"] = float64(ph.TempsNs) / total
		layer["sim.sense_frac"] = float64(ph.SenseNs) / total
		layer["sim.decide_frac"] = float64(ph.DecideNs) / total
		layer["sim.act_frac"] = float64(ph.ActNs) / total
	}
	layer["sim.module_ticks_per_s"] = ticks * float64(modules) / window.Seconds()
	layer["serve.computations"] = computations

	hits := front.stat(func(s serve.Stats) int64 { return s.CacheHits })
	misses := front.stat(func(s serve.Stats) int64 { return s.CacheMisses })
	if hits+misses > 0 {
		layer["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if hits > 0 {
		layer["serve.disk_hit_ratio"] = front.stat(func(s serve.Stats) int64 { return s.DiskHits }) / hits
	}
	puts := front.stat(func(s serve.Stats) int64 { return s.StorePuts })
	layer["store.puts"] = puts
	if puts > 0 {
		layer["store.put_kb"] = front.stat(func(s serve.Stats) int64 { return s.StoreBytes }) / 1024 / puts
	}
	layer["store.objects"] = float64(front.stAfter.StoreObjects)
	layer["store.evictions"] = front.stat(func(s serve.Stats) int64 { return s.StoreEvictions })
}

func phaseDelta(before, after sim.PhaseTimings) sim.PhaseTimings {
	return sim.PhaseTimings{
		Samples:  after.Samples - before.Samples,
		TempsNs:  after.TempsNs - before.TempsNs,
		SenseNs:  after.SenseNs - before.SenseNs,
		DecideNs: after.DecideNs - before.DecideNs,
		ActNs:    after.ActNs - before.ActNs,
	}
}

// --- library replay ---

// timedController times each Decide of the controller it wraps: the
// library-side view of the core layer, measured from outside it.
type timedController struct {
	core.Controller
	lastStart time.Time
	last      time.Duration
	decideUs  []float64
	switched  int
}

func (t *timedController) Decide(tick int, temps []float64, ambientC float64) (core.Decision, error) {
	t.lastStart = time.Now()
	d, err := t.Controller.Decide(tick, temps, ambientC)
	t.last = time.Since(t.lastStart)
	t.decideUs = append(t.decideUs, float64(t.last.Nanoseconds())/1e3)
	if d.Switched {
		t.switched++
	}
	return d, err
}

// libJob is one library replay: a scheme at an array size over a
// boundary-condition trace, with the seed a served request used.
type libJob struct {
	scheme  string
	modules int
	seed    int64
	tr      *trace.Trace
	ticks   int
}

// cycleTrace builds the trace the server builds for a /v1/runs request
// of the cycle over durationS, or, with durationS 0, for a twin walking
// the cycle (the default synthesis span, which may end before the
// cycle does).
func cycleTrace(name string, durationS float64) (*trace.Trace, error) {
	c, err := drive.CycleByName(name)
	if err != nil {
		return nil, err
	}
	cfg := drive.DefaultSynthConfig()
	if durationS > 0 {
		cfg.Duration = durationS
	}
	return c.Synthesize(cfg)
}

// ticksOf is the control-period count the server simulates for a span.
func ticksOf(durationS float64) int { return int(durationS/0.5) + 1 }

// libraryReplay steps each job through sim.NewSession with its
// controller behind timedController and fills the per-scheme core.*
// and sim.step_self_us_mean.* metrics: Decide's cost and switching rate,
// and Step's own time outside Decide.
func libraryReplay(layer map[string]float64, jobs []libJob, spans *spanLog) error {
	decide := map[string][]float64{}
	self := map[string][]float64{}
	switched := map[string]int{}
	for j, job := range jobs {
		sch, err := sim.SchemeByName(job.scheme)
		if err != nil {
			return err
		}
		sys := sim.DefaultSystem()
		sys.Modules = job.modules
		ctrl, err := sch.New(sys, sim.SchemeConfig{})
		if err != nil {
			return err
		}
		tc := &timedController{Controller: ctrl}
		opts := sim.DefaultOptions()
		opts.Seed = job.seed
		opts.DeterministicRuntime = true
		opts.KeepTicks = false
		opts.StartTime = job.tr.Times[0]
		sess, err := sim.NewSession(sys, tc, opts)
		if err != nil {
			return err
		}
		rid := fmt.Sprintf("lib-%s-%d", job.scheme, j)
		for k := 0; k < job.ticks; k++ {
			cond, err := drive.ConditionsAt(job.tr, sess.Now())
			if err != nil {
				return err
			}
			start := time.Now()
			if _, err := sess.Step(cond); err != nil {
				return err
			}
			end := time.Now()
			step := end.Sub(start)
			self[job.scheme] = append(self[job.scheme], float64((step-tc.last).Nanoseconds())/1e3)
			if spans != nil {
				id := spans.newID()
				spans.record(id, rid, 0, "sim.Session.Step", start, end, 0)
				spans.record(spans.newID(), rid, id, "core.Controller.Decide", tc.lastStart, tc.lastStart.Add(tc.last), 0)
			}
		}
		decide[job.scheme] = append(decide[job.scheme], tc.decideUs...)
		switched[job.scheme] += tc.switched
	}
	for s, d := range decide {
		layer["core.decide_us_mean."+s] = mean(d)
		layer["core.decide_us_p99."+s] = pct(d, 99)
		layer["core.switch_frac."+s] = float64(switched[s]) / float64(len(d))
		layer["sim.step_self_us_mean."+s] = mean(self[s])
	}
	return nil
}

// --- shard-hop proxy ---

// inflight names the client request a closed single-client loop has in
// flight, so a shard hop can be charged to it.
type inflight struct {
	rid  string
	span int64
}

// hopProxy sits between the coordinator and one worker and times each
// shard hop from outside both.
type hopProxy struct {
	rp      *httputil.ReverseProxy
	spans   *spanLog
	current *atomic.Pointer[inflight]

	mu    sync.Mutex
	rttMs []float64
	kb    []float64
}

func newHopProxy(target string, spans *spanLog, current *atomic.Pointer[inflight]) (*hopProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	return &hopProxy{rp: httputil.NewSingleHostReverseProxy(u), spans: spans, current: current}, nil
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (h *hopProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	cw := &countingWriter{ResponseWriter: w}
	h.rp.ServeHTTP(cw, r)
	end := time.Now()
	h.mu.Lock()
	h.rttMs = append(h.rttMs, float64(end.Sub(start).Nanoseconds())/1e6)
	h.kb = append(h.kb, float64(cw.n)/1024)
	h.mu.Unlock()
	if cur := h.current.Load(); cur != nil {
		h.spans.record(h.spans.newID(), cur.rid, cur.span, "shard hop", start, end, cw.n)
	}
}

func (h *hopProxy) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rttMs, h.kb = nil, nil
}

func (h *hopProxy) hops() (rtt, kb []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.rttMs...), append([]float64(nil), h.kb...)
}
