package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"tegrecon/internal/serve"
)

// runCycles are the standard cycles runs_n100 slices.
var runCycles = []string{"nedc", "wltc", "us06", "delivery"}

// runRequest is request i of a seed's runs_n100 list: a 60 s slice of
// one of four cycles at N=100, with a fresh sensor-noise seed so every
// request misses the cache. Scheme weights DNOR .3, INOR .4, EHTR .2,
// Baseline .1 put p50 inside INOR's cost mode and p90/p99 inside
// EHTR's, so no reported percentile sits between two schemes.
func runRequest(seed int64, i int) serve.RunRequest {
	r := newRand(seed, "runs_n100", i)
	scheme := "ehtr"
	switch u := r.float64(); {
	case u < 0.1:
		scheme = "baseline"
	case u < 0.4:
		scheme = "dnor"
	case u < 0.8:
		scheme = "inor"
	}
	s := r.seed()
	return serve.RunRequest{Cycle: runCycles[r.intn(len(runCycles))], Scheme: scheme, DurationS: 60, Seed: &s, Modules: 100}
}

// warmSchemes are sent once each at set-up with reserved negative
// seeds (measured requests draw non-negative ones), so every code path
// is warm before timing starts.
var warmSchemes = []string{"baseline", "dnor", "inor", "ehtr"}

type runsEnv struct {
	srv *serve.Server
	ts  *httptest.Server
	c   *http.Client
}

func (e *runsEnv) close() {
	e.c.CloseIdleConnections()
	e.ts.Close()
}

func newRunsEnv(cfg config) (*runsEnv, error) {
	srv := serve.New(serve.Config{PhaseSampleEvery: cfg.phaseSampleEvery()})
	e := &runsEnv{srv: srv, ts: httptest.NewServer(cfg.handler(srv.Handler())), c: newClient()}
	for k, sch := range warmSchemes {
		s := int64(-1 - k)
		body, err := json.Marshal(serve.RunRequest{Cycle: "wltc", Scheme: sch, DurationS: 60, Seed: &s, Modules: 100})
		if err == nil {
			_, err = do(e.c, http.MethodPost, e.ts.URL+"/v1/runs", "", body)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return e, nil
}

func runRuns(cfg config) (*outcome, error) {
	reps := cfg.sc.setupReps
	if cfg.traced {
		reps = 1
	}
	env, setupS, err := timeSetups(reps, func() (*runsEnv, error) { return newRunsEnv(cfg) })
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
	bodies := make([][]byte, cfg.sc.checkRuns)
	var next atomic.Int64
	var samples []sample
	seqs := make([]int, 2)
	o.window, o.run = measureWindow(env.srv, func() []sample {
		samples, o.load = segmented(cfg.window(), func(d time.Duration) []sample {
			return closedLoop(seqs, d, func(_, _ int, s *sample) {
				i := int(next.Add(1) - 1)
				s.idx = i
				body, err := json.Marshal(runRequest(cfg.seed, i))
				if err != nil {
					s.err = err
					return
				}
				rid := fmt.Sprintf("runs_n100-%d", i)
				resp, err := do(env.c, http.MethodPost, env.ts.URL+"/v1/runs", rid, body)
				s.done, s.bytes, s.err = resp.done, len(resp.body), err
				cfg.spans.record(cfg.spans.newID(), rid, 0, "client POST /v1/runs", s.sent, s.done, s.bytes)
				if err == nil && resp.header.Get("X-Cache") != "miss" {
					s.err = fmt.Errorf("request %d answered %q, want a cache miss", i, resp.header.Get("X-Cache"))
				}
				if i < len(bodies) && s.err == nil {
					bodies[i] = resp.body
				}
			})
		})
		return samples
	})
	tally(o, samples, nil)

	// Re-send the first requests to a fresh server: the responses must
	// be byte-identical. The digest covers the fresh server's responses,
	// so it does not depend on how many requests the window completed.
	fresh, err := newRunsEnv(config{sc: cfg.sc})
	if err != nil {
		return nil, err
	}
	defer fresh.close()
	var d digest
	for i, want := range bodies {
		body, err := json.Marshal(runRequest(cfg.seed, i))
		if err != nil {
			return nil, err
		}
		got, err := do(fresh.c, http.MethodPost, fresh.ts.URL+"/v1/runs", "", body)
		if err != nil {
			o.failf("re-sending request %d: %v", i, err)
			break
		}
		if want != nil && !bytes.Equal(got.body, want) {
			o.failf("request %d: response differs from a fresh server's", i)
		}
		d.add(got.body)
	}
	o.digest = d.sum()

	if cfg.traced {
		if err := p.finish(env.c); err != nil {
			return nil, err
		}
		serveLayers(o.layer, []*probe{p}, []string{"POST /v1/runs"}, samples, 100, o.window)
		var jobs []libJob
		for si, sch := range libSchemes {
			for k, cyc := range runCycles {
				tr, err := cycleTrace(cyc, 60)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, libJob{scheme: sch, modules: 100, seed: *runRequest(cfg.seed, si*len(runCycles)+k).Seed, tr: tr, ticks: ticksOf(60)})
			}
		}
		if err := libraryReplay(o.layer, jobs, cfg.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tally counts a pass's successes and failures; primary selects the
// samples whose latency the end-to-end percentiles report (nil: all).
func tally(o *outcome, samples []sample, primary func(sample) bool) {
	for _, s := range samples {
		if s.err != nil {
			o.failed++
			if o.failed <= 3 {
				o.failf("request %d: %v", s.idx, s.err)
			}
			continue
		}
		o.ok = append(o.ok, s)
		if primary == nil || primary(s) {
			o.primary = append(o.primary, s)
		}
	}
}
