package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"tegrecon/internal/serve"
	"tegrecon/internal/stats"
)

// scale holds the sizes a workload run is built from. fullScale is the
// benchmark; tests shrink it so all four workloads run in seconds.
type scale struct {
	setupReps  int     // set-ups timed per run; setup_s is their median
	warmKeys   int     // replay_zipf working set (distinct /v1/runs keys)
	zipfRate   float64 // replay_zipf max_rps bisection centre, requests per second
	checkRuns  int     // runs_n100 requests re-sent to a fresh server
	checkSteps int     // twins_n500 steps per twin replayed on a fresh server
	checkGrid  int     // grid_sharded requests replayed on a lone server
	libTicks   int     // library replay ticks per scheme on twins_n500
	bisect     int     // replay_zipf max_rps trials (traced runs only)
	trialS     float64 // seconds per max_rps trial
}

var fullScale = scale{
	setupReps:  3,
	warmKeys:   1024,
	zipfRate:   2000,
	checkRuns:  32,
	checkSteps: 4,
	checkGrid:  8,
	libTicks:   240,
	bisect:     5,
	trialS:     1,
}

// config is one workload run's settings.
type config struct {
	seed      int64
	seconds   float64
	dir       string // where store directories are created
	sc        scale
	spansPath string // non-empty: also run a traced pass and write its spans here

	// Set for the traced pass only.
	traced bool
	spans  *spanLog

	// wrap, when set, is interposed in front of the server under test
	// during the measured pass (tests use it to corrupt responses).
	wrap func(http.Handler) http.Handler
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// phaseSampleEvery is the server setting of a pass: the traced pass
// times every tick's phases, the measured pass keeps the default.
func (c config) phaseSampleEvery() int {
	if c.traced {
		return 1
	}
	return 0
}

func (c config) handler(h http.Handler) http.Handler {
	if c.wrap != nil {
		return c.wrap(h)
	}
	return h
}

// workload is one traffic mix; BENCHMARK.json and README.md say why
// each was chosen.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"runs_n100", runRuns},
	{"twins_n500", runTwins},
	{"grid_sharded", runGrid},
	{"replay_zipf", runReplay},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// outcome is what one pass of a workload measured.
type outcome struct {
	setupS  []float64 // each timed set-up, seconds at reference speed
	ok      []sample  // requests that succeeded, in request order
	primary []sample  // the successful requests latency metrics report
	failed  int       // requests that failed
	window  time.Duration
	load    load // the measured window's segments
	run     runStats
	checks  []string           // correctness check failures
	digest  string             // SHA-256 over the checked response bodies in request order
	layer   map[string]float64 // per-layer values (traced pass only)
}

func (o *outcome) failf(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// endToEnd reports latency, rate and set-up time at reference speed
// (see calib.go).
func (o *outcome) endToEnd() map[string]metric {
	scaled := make([]float64, len(o.primary))
	for i, s := range o.primary {
		scaled[i] = s.scaledMs()
	}
	rate := 0.0
	if o.load.refS > 0 {
		rate = float64(len(o.ok)) / o.load.refS
	}
	return map[string]metric{
		"setup_s":      {median(o.setupS), "s"},
		"req_ms_p50":   {pct(scaled, 50), "ms"},
		"req_ms_p90":   {pct(scaled, 90), "ms"},
		"req_per_s":    {rate, "1/s"},
		"heap_live_mb": {o.run.heapMB, "MB"},
	}
}

// latencies returns the primary requests' latencies in ms.
func (o *outcome) latencies() []float64 {
	out := make([]float64, len(o.primary))
	for i, s := range o.primary {
		out[i] = s.latencyMs()
	}
	return out
}

// runWorkload runs the measured pass and, when spans are asked for, a
// traced pass after it, and folds them into one result.
func runWorkload(w workload, cfg config) (*result, error) {
	base, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:      w.name,
		Seed:          cfg.seed,
		Seconds:       cfg.seconds,
		Correct:       len(base.checks) == 0 && base.failed == 0,
		Attempted:     len(base.ok) + base.failed,
		Failed:        base.failed,
		OutputDigest:  base.digest,
		CheckFailures: base.checks,
		HostSpeed:     median(base.load.speeds),
		Metrics:       base.endToEnd(),
	}
	if cfg.spansPath == "" {
		return res, nil
	}
	tcfg := cfg
	tcfg.traced = true
	tcfg.spans = newSpanLog()
	tr, err := w.run(tcfg)
	if err != nil {
		return nil, err
	}
	res.Trace = true
	res.Correct = res.Correct && len(tr.checks) == 0 && tr.failed == 0
	res.Attempted += len(tr.ok) + tr.failed
	res.Failed += tr.failed
	res.CheckFailures = append(res.CheckFailures, tr.checks...)
	if tr.digest != base.digest {
		res.Correct = false
		res.CheckFailures = append(res.CheckFailures, "traced pass output digest differs from the measured pass")
	}
	tr.layer["runtime.gc_cpu_frac"] = tr.run.gcCPUFrac
	tr.layer["runtime.alloc_mb_per_s"] = tr.run.allocMBps
	tr.layer["serve.queue_depth_mean"] = tr.run.depthMean
	tr.layer["loadgen.samples"] = float64(len(tr.primary))
	tr.layer["loadgen.req_ms_p99"] = pct(tr.latencies(), 99)
	if p := pct(base.latencies(), 50); p > 0 {
		tr.layer["trace.overhead_frac"] = pct(tr.latencies(), 50)/p - 1
	}
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{tr.layer[m.name], m.unit}
	}
	if err := tcfg.spans.write(cfg.spansPath); err != nil {
		return nil, err
	}
	return res, nil
}

// --- load generation ---

// sample is one request's timing. In a closed loop a request is due
// when it is sent; in an open loop it is due at its scheduled time,
// so a stall charges its wait to every request queued behind it.
type sample struct {
	idx   int // position in the workload's request list
	kind  int // request kind, where a workload mixes several
	due   time.Time
	sent  time.Time
	done  time.Time
	bytes int
	err   error
	speed float64 // host speed factor of the segment it ran in
}

func (s sample) latencyMs() float64 { return float64(s.done.Sub(s.due).Nanoseconds()) / 1e6 }

// scaledMs is the latency at reference speed.
func (s sample) scaledMs() float64 { return s.latencyMs() * s.speed }

// segment is how long the load runs between two calibrations: short
// enough to follow the host's slow and fast spells, long enough that
// calibrating costs about 1% of the window.
const segment = time.Second

// load is how a measured window ran.
type load struct {
	speeds []float64 // each segment's host speed factor
	refS   float64   // seconds the load ran, calibrations excluded, at reference speed
}

// segmented runs run in consecutive segments until window has passed,
// timing the reference kernel before the first segment and after each
// one. Each sample is stamped with its segment's speed factor, from
// the calibrations on either side of it.
func segmented(window time.Duration, run func(d time.Duration) []sample) ([]sample, load) {
	var (
		out []sample
		l   load
	)
	before := calibrate()
	for left := window; left > 0; left -= segment {
		start := time.Now()
		ss := run(min(segment, left))
		wall := time.Since(start).Seconds()
		after := calibrate()
		f := speedFactor(before, after)
		for i := range ss {
			ss[i].speed = f
		}
		out = append(out, ss...)
		l.speeds = append(l.speeds, f)
		l.refS += wall * f
		before = after
	}
	return out, l
}

// closedLoop runs one sender per element of seqs; each sends its next
// request as soon as the previous one completes, until window has
// passed. seqs holds each sender's next sequence number and is advanced
// in place, so a window run in segments continues every sequence. send
// fills in idx, kind, bytes, err and done (the moment the response was
// read, so response checks stay out of the latency).
func closedLoop(seqs []int, window time.Duration, send func(client, seq int, s *sample)) []sample {
	stop := time.Now().Add(window)
	per := make([][]sample, len(seqs))
	var wg sync.WaitGroup
	for c := range seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ; time.Now().Before(stop); seqs[c]++ {
				now := time.Now()
				s := sample{due: now, sent: now}
				send(c, seqs[c], &s)
				if s.done.IsZero() {
					s.done = time.Now()
				}
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// openLoop sends request i at start+offsets[i] from at most senders
// goroutines. A request whose due time passes while every sender is
// busy goes out late; its latency still counts from the due time.
func openLoop(senders int, start time.Time, offsets []time.Duration, send func(i int, s *sample)) []sample {
	out := make([]sample, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				due := start.Add(offsets[i])
				sleepUntil(due)
				s := sample{idx: i, due: due, sent: time.Now()}
				send(i, &s)
				if s.done.IsZero() {
					s.done = time.Now()
				}
				out[i] = s
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread until t. time.Sleep rounds short
// waits up to about a millisecond on Linux, which would dominate the
// sub-millisecond latencies of the cache path; nanosleep overshoots by
// tens of microseconds, so it sleeps to just short of t and spins the
// rest.
func sleepUntil(t time.Time) {
	const spin = 100 * time.Microsecond
	for {
		d := time.Until(t)
		if d <= spin {
			break
		}
		ts := syscall.NsecToTimespec(int64(d - spin))
		syscall.Nanosleep(&ts, nil) // EINTR: the loop recomputes what is left
	}
	for time.Now().Before(t) {
	}
}

// poissonOffsets draws Poisson arrival offsets at rate per second over
// window.
func poissonOffsets(r *splitmix, rate float64, window time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += r.exp() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return out
		}
		out = append(out, d)
	}
}

// latenessStats reports the open-loop generator's health: the p99 of
// how late requests went out, the largest backlog of requests due but
// not yet sent, and whether lateness grew from the first quarter of the
// run to the last (a backlog the system is not draining).
func latenessStats(samples []sample) (lateP99Ms float64, backlogMax int, growing bool) {
	if len(samples) == 0 {
		return 0, 0, false
	}
	late := make([]float64, len(samples))
	sent := make([]time.Time, len(samples))
	for i, s := range samples {
		late[i] = float64(s.sent.Sub(s.due).Nanoseconds()) / 1e6
		sent[i] = s.sent
	}
	sort.Slice(sent, func(i, j int) bool { return sent[i].Before(sent[j]) })
	j := 0
	for i, s := range samples { // samples are in due order
		for j < len(sent) && !sent[j].After(s.due) {
			j++
		}
		if b := i + 1 - j; b > backlogMax {
			backlogMax = b
		}
	}
	q := len(late) / 4
	if q > 0 {
		growing = mean(late[len(late)-q:]) > mean(late[:q])+1
	}
	return pct(late, 99), backlogMax, growing
}

// --- process statistics ---

// runStats is what a measured window left behind. The heap is what
// the process retains once the window ends: the live heap at a forced
// collection, less the load generator's own record of every request,
// which grows with the request count. Samples of the heap while the
// load runs depend on where collections happen to fall and spread too
// much from run to run to bound.
type runStats struct {
	heapMB    float64
	depthMean float64
	gcCPUFrac float64
	allocMBps float64
}

var rtNames = []string{
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// measureWindow runs fn, which returns the window's samples, while
// sampling front's queue depth every 100 ms, and returns fn's wall time
// with the window's statistics.
func measureWindow(front *serve.Server, fn func() []sample) (time.Duration, runStats) {
	before := readRuntime()
	var (
		depthSum float64
		takes    int
		mu       sync.Mutex
	)
	take := func() {
		d := float64(front.Stats().QueueDepth)
		mu.Lock()
		depthSum += d
		takes++
		mu.Unlock()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				take()
			}
		}
	}()
	take()
	start := time.Now()
	samples := fn()
	elapsed := time.Since(start)
	close(stop)
	<-done
	take()
	after := readRuntime()
	st := runStats{depthMean: depthSum / float64(takes)}
	if cpu := rtValue(after[2]) - rtValue(before[2]); cpu > 0 {
		st.gcCPUFrac = (rtValue(after[1]) - rtValue(before[1])) / cpu
	}
	st.allocMBps = (rtValue(after[3]) - rtValue(before[3])) / (1 << 20) / elapsed.Seconds()
	runtime.GC()
	records := float64(cap(samples)) * float64(unsafe.Sizeof(sample{}))
	st.heapMB = (rtValue(readRuntime()[0]) - records) / (1 << 20)
	runtime.KeepAlive(samples)
	return elapsed, st
}

// timeSetups runs setup reps times and keeps the last environment; the
// others are torn down. It returns each set-up's time at reference
// speed, from calibrations on either side of it.
func timeSetups[E interface{ close() }](reps int, setup func() (E, error)) (E, []float64, error) {
	var (
		env   E
		times []float64
	)
	for r := 0; r < reps; r++ {
		if r > 0 {
			env.close()
		}
		before := calibrate()
		start := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		wall := time.Since(start).Seconds()
		times = append(times, wall*speedFactor(before, calibrate()))
		env = e
	}
	return env, times, nil
}

// --- statistics helpers ---

// pct is the p-th percentile (0–100) of xs by stats.Percentile's
// linear interpolation; 0 for an empty sample.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Percentile(s, p)
}

func median(xs []float64) float64 { return pct(xs, 50) }

func mean(xs []float64) float64 { return stats.Mean(xs) }

// --- HTTP ---

// newClient is the load generator's client: at most two connections to
// any server, so load never comes from more than two sockets.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// call is one HTTP exchange's outcome.
type call struct {
	header http.Header
	body   []byte
	done   time.Time
}

// do sends one request carrying the benchmark's request ID and reads
// the whole response.
func do(c *http.Client, method, url, rid string, body []byte) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := c.Do(req)
	if err != nil {
		return call{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	out := call{header: resp.Header, body: b, done: time.Now()}
	if err != nil {
		return out, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return out, nil
}

// --- request generation ---

// splitmix is the SplitMix64 generator: tiny, seedable per request, so
// request i of a seed is the same whichever client sends it and however
// many requests a run gets through.
type splitmix uint64

func newRand(seed int64, stream string, i int) *splitmix {
	h := uint64(seed)
	for _, c := range stream {
		h = h*0x100000001b3 ^ uint64(c)
	}
	r := splitmix(h ^ uint64(i)*0x9e3779b97f4a7c15)
	r.next()
	return &r
}

func (r *splitmix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *splitmix) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) seed() int64 { return int64(r.next() >> 1) }

// exp draws a unit-mean exponential variate.
func (r *splitmix) exp() float64 {
	for {
		if u := r.float64(); u > 0 {
			return -math.Log(u)
		}
	}
}

// --- digests ---

// digest accumulates response bodies in request order.
type digest struct{ b bytes.Buffer }

func (d *digest) add(body []byte) {
	fmt.Fprintf(&d.b, "%d:", len(body))
	d.b.Write(body)
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.b.Bytes())
	return hex.EncodeToString(h[:])
}
