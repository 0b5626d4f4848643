package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tegrecon/internal/serve"
	"tegrecon/internal/store"
)

const (
	zipfS        = 1.1
	rpsLimitMs   = 2.0                   // max_rps: p99 latency limit
	trialDropAge = 50 * time.Millisecond // a trial request this late is dropped, and the trial fails
)

// replayKey is key k of a seed's replay_zipf working set: Baseline and
// DNOR over 20 s slices at N=100, a quarter of them carrying per-tick
// records. The key structure is fixed by k alone — k%8 ∈ {0, 5} carry
// ticks — so the Zipf ranks draw the same mix of payload sizes on every
// seed, and only the seeds themselves change.
func replayKey(seed int64, k int) serve.RunRequest {
	scheme := "baseline"
	if k%2 == 1 {
		scheme = "dnor"
	}
	s := newRand(seed, "replay_zipf", k).seed()
	return serve.RunRequest{
		Cycle:     runCycles[(k/2)%len(runCycles)],
		Scheme:    scheme,
		DurationS: 20,
		Seed:      &s,
		Modules:   100,
		Ticks:     k%8 == 0 || k%8 == 5,
	}
}

// zipf draws key ranks k in [0, n) with probability proportional to
// (k+1)^-zipfS, by inverting its cumulative distribution.
type zipf []float64

func newZipf(n int) zipf {
	cdf := make(zipf, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -zipfS)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// rank is the key rank of request i of a seed: the same whichever
// client sends it and however many requests a run gets through.
func (z zipf) rank(seed int64, i int) int {
	return sort.SearchFloat64s(z, newRand(seed, "replay_zipf.keys", i).float64())
}

// replayDraws is a seed's open-loop schedule for the max_rps trials:
// Poisson arrival offsets at rate over window and a key rank for each.
func replayDraws(seed int64, keys int, rate float64, window time.Duration) ([]time.Duration, []int) {
	offsets := poissonOffsets(newRand(seed, "replay_zipf.arrivals", 0), rate, window)
	z := newZipf(keys)
	ks := make([]int, len(offsets))
	for i := range ks {
		ks[i] = z.rank(seed, i)
	}
	return offsets, ks
}

type replayEnv struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	c      *http.Client
	bodies [][]byte // each key's request body
	warm   [][]byte // each key's response while the store was filled
}

func (e *replayEnv) close() {
	e.c.CloseIdleConnections()
	if e.ts != nil {
		e.ts.Close()
	}
	os.RemoveAll(e.dir)
}

// newReplayEnv fills a fresh store with every key through one server,
// then opens a second server on the same directory: its memory tier
// starts empty and its disk tier is warm.
func newReplayEnv(cfg config) (*replayEnv, error) {
	dir, err := os.MkdirTemp(cfg.dir, "replay-store-")
	if err != nil {
		return nil, err
	}
	e := &replayEnv{dir: dir, c: newClient()}
	fail := func(err error) (*replayEnv, error) {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	n := cfg.sc.warmKeys
	e.bodies, e.warm = make([][]byte, n), make([][]byte, n)
	for k := range e.bodies {
		if e.bodies[k], err = json.Marshal(replayKey(cfg.seed, k)); err != nil {
			return fail(err)
		}
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return fail(err)
	}
	filler := httptest.NewServer(serve.New(serve.Config{Store: st}).Handler())
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		warmEr error
	)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				resp, err := do(e.c, http.MethodPost, filler.URL+"/v1/runs", "", e.bodies[k])
				if err == nil && resp.header.Get("X-Cache") != "miss" {
					err = fmt.Errorf("warming key %d answered %q, want a miss", k, resp.header.Get("X-Cache"))
				}
				if err != nil {
					errMu.Lock()
					warmEr = err
					errMu.Unlock()
					return
				}
				e.warm[k] = resp.body
			}
		}()
	}
	wg.Wait()
	e.c.CloseIdleConnections()
	filler.Close()
	if warmEr != nil {
		return fail(warmEr)
	}
	if st, err = store.Open(dir, 0); err != nil {
		return fail(err)
	}
	e.srv = serve.New(serve.Config{Store: st, PhaseSampleEvery: cfg.phaseSampleEvery()})
	e.ts = httptest.NewServer(cfg.handler(e.srv.Handler()))
	return e, nil
}

// send posts key k and checks the reply is a hit carrying the bytes the
// key was warmed with.
func (e *replayEnv) send(k int, rid string, s *sample) {
	resp, err := do(e.c, http.MethodPost, e.ts.URL+"/v1/runs", rid, e.bodies[k])
	s.done, s.bytes, s.err = resp.done, len(resp.body), err
	switch {
	case err != nil:
	case resp.header.Get("X-Cache") != "hit":
		s.err = fmt.Errorf("key %d answered %q, want a cache hit", k, resp.header.Get("X-Cache"))
	case !bytes.Equal(resp.body, e.warm[k]):
		s.err = fmt.Errorf("key %d: hit differs from the response it was warmed with", k)
	}
}

func runReplay(cfg config) (*outcome, error) {
	reps := cfg.sc.setupReps
	if cfg.traced {
		reps = 1
	}
	env, setupS, err := timeSetups(reps, func() (*replayEnv, error) { return newReplayEnv(cfg) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	o := &outcome{setupS: setupS, layer: map[string]float64{}}

	var p *probe
	if cfg.traced {
		if p, err = startProbe(env.c, env.srv, env.ts.URL); err != nil {
			return nil, err
		}
	}
	computations := env.srv.Stats().Computations
	z := newZipf(cfg.sc.warmKeys)
	var next atomic.Int64
	var samples []sample
	seqs := make([]int, 2)
	o.window, o.run = measureWindow(env.srv, func() []sample {
		samples, o.load = segmented(cfg.window(), func(d time.Duration) []sample {
			return closedLoop(seqs, d, func(_, _ int, s *sample) {
				i := int(next.Add(1) - 1)
				s.idx = i
				rid := fmt.Sprintf("replay_zipf-%d", i)
				env.send(z.rank(cfg.seed, i), rid, s)
				cfg.spans.record(cfg.spans.newID(), rid, 0, "client POST /v1/runs", s.sent, s.done, s.bytes)
			})
		})
		return samples
	})
	tally(o, samples, nil)
	if n := env.srv.Stats().Computations - computations; n != 0 {
		o.failf("%d computations on a warm store, want 0", n)
	}
	// The digest covers the bodies the first draws must return, a set
	// fixed by the seed alone.
	var d digest
	for i := 0; i < 1000; i++ {
		d.add(env.warm[z.rank(cfg.seed, i)])
	}
	o.digest = d.sum()

	if cfg.traced {
		if err := p.finish(env.c); err != nil {
			return nil, err
		}
		serveLayers(o.layer, []*probe{p}, []string{"POST /v1/runs"}, samples, 100, o.window)
		rps, late, backlog := maxRPS(cfg, env)
		o.layer["loadgen.max_rps"] = rps
		o.layer["loadgen.late_ms_p99"] = late
		o.layer["loadgen.backlog_max"] = float64(backlog)
		var jobs []libJob
		for si, sch := range libSchemes {
			for k, cyc := range runCycles {
				tr, err := cycleTrace(cyc, 20)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, libJob{scheme: sch, modules: 100, seed: *replayKey(cfg.seed, si*len(runCycles)+k).Seed, tr: tr, ticks: ticksOf(20)})
			}
		}
		if err := libraryReplay(o.layer, jobs, cfg.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

var errDropped = errors.New("dropped: the generator fell too far behind")

// maxRPS bisects (geometrically) for the highest Poisson rate whose
// trial keeps p99 latency within rpsLimitMs without a growing backlog.
// It also returns the generator's lateness p99 and largest backlog in
// the fastest trial that passed, which show whether that trial was
// valid.
func maxRPS(cfg config, env *replayEnv) (rate, lateP99Ms float64, backlogMax int) {
	lo, hi := cfg.sc.zipfRate/8, cfg.sc.zipfRate*8
	trial := time.Duration(cfg.sc.trialS * float64(time.Second))
	for t := 0; t < cfg.sc.bisect; t++ {
		mid := math.Sqrt(lo * hi)
		offsets, keys := replayDraws(cfg.seed+int64(t)+1, cfg.sc.warmKeys, mid, trial)
		samples := openLoop(2, time.Now(), offsets, func(i int, s *sample) {
			if s.sent.Sub(s.due) > trialDropAge {
				s.err = errDropped
				return
			}
			env.send(keys[i], "", s)
		})
		ok := len(samples) > 0
		var lat []float64
		for _, s := range samples {
			if s.err != nil {
				ok = false
				break
			}
			lat = append(lat, s.latencyMs())
		}
		late, backlog, growing := latenessStats(samples)
		if ok && !growing && pct(lat, 99) <= rpsLimitMs {
			lo, lateP99Ms, backlogMax = mid, late, backlog
		} else {
			hi = mid
		}
	}
	return lo, lateP99Ms, backlogMax
}
