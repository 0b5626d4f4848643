package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"tegrecon/internal/scenario"
	"tegrecon/internal/serve"
	"tegrecon/internal/store"
)

const (
	gridMatrix = iota // request kinds, alternating
	gridSweep
)

var gridSchemes = []string{"baseline", "inor", "dnor", "ehtr"}

// gridCellS is the simulated span of every matrix cell and sweep cycle.
const gridCellS = 20

// gridSpec is the 32-cell matrix of grid_sharded: 2 synthetic cycles ×
// 4 schemes × 2 ambients × 2 flow splits at N=100. The base seed is
// fresh per request, so every cell misses the cache.
func gridSpec(seed int64) scenario.Matrix {
	return scenario.Matrix{
		Version:      scenario.SpecVersion,
		Name:         "perfbench",
		Seed:         seed,
		MaxDurationS: gridCellS,
		Cycles: []scenario.CycleSpec{
			{Synth: &scenario.SynthSpec{Profile: "urban", Seed: 1, DurationS: gridCellS}},
			{Synth: &scenario.SynthSpec{Profile: "highway", Seed: 2, DurationS: gridCellS}},
		},
		Schemes:    gridSchemes,
		Ambients:   []scenario.AmbientSpec{{AmbientC: 15}, {AmbientC: 30}},
		Flows:      []scenario.FlowSpec{{Paths: 1}, {Paths: 2, Maldistribution: 0.3}},
		ArraySizes: []int{100},
	}
}

var gridSweepCycles = []string{"wltc", "nedc"}

func gridSweepRequest(seed int64) serve.SweepRequest {
	return serve.SweepRequest{Cycles: gridSweepCycles, Schemes: gridSchemes, MaxDurationS: gridCellS, Seed: &seed, Modules: 100}
}

// gridRequest is request i of a seed's grid_sharded list: matrices and
// sweeps alternate, each with a fresh seed.
func gridRequest(seed int64, i int) (kind int, path string, seedUsed int64, body []byte, err error) {
	s := newRand(seed, "grid_sharded", i).seed()
	if i%2 == 0 {
		body, err = json.Marshal(serve.MatrixRequest{Matrix: gridSpec(s)})
		return gridMatrix, "/v1/matrix", s, body, err
	}
	body, err = json.Marshal(gridSweepRequest(s))
	return gridSweep, "/v1/sweeps", s, body, err
}

type gridEnv struct {
	dir     string
	coord   *serve.Server
	ts      *httptest.Server
	workers []*serve.Server
	closers []func()
	proxies []*hopProxy
	c       *http.Client
	cur     atomic.Pointer[inflight]
}

func (e *gridEnv) close() {
	e.c.CloseIdleConnections()
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	os.RemoveAll(e.dir)
}

// newGridEnv starts two workers, each behind a timing proxy, and a
// coordinator with a disk store that shards over the proxies, then
// warms one matrix and one sweep.
func newGridEnv(cfg config) (*gridEnv, error) {
	dir, err := os.MkdirTemp(cfg.dir, "grid-store-")
	if err != nil {
		return nil, err
	}
	e := &gridEnv{dir: dir, c: newClient()}
	fail := func(err error) (*gridEnv, error) {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return fail(err)
	}
	var peers []string
	for w := 0; w < 2; w++ {
		srv := serve.New(serve.Config{PhaseSampleEvery: cfg.phaseSampleEvery()})
		wts := httptest.NewServer(srv.Handler())
		e.closers = append(e.closers, wts.Close)
		hp, err := newHopProxy(wts.URL, cfg.spans, &e.cur)
		if err != nil {
			return fail(err)
		}
		pts := httptest.NewServer(hp)
		e.closers = append(e.closers, pts.Close)
		e.workers, e.proxies = append(e.workers, srv), append(e.proxies, hp)
		peers = append(peers, pts.URL)
	}
	e.coord = serve.New(serve.Config{Store: st, WorkerPeers: peers, PhaseSampleEvery: cfg.phaseSampleEvery()})
	e.ts = httptest.NewServer(cfg.handler(e.coord.Handler()))
	e.closers = append(e.closers, e.ts.Close)
	for _, req := range []any{serve.MatrixRequest{Matrix: gridSpec(-1)}, gridSweepRequest(-1)} {
		path := "/v1/sweeps"
		if _, ok := req.(serve.MatrixRequest); ok {
			path = "/v1/matrix"
		}
		body, err := json.Marshal(req)
		if err == nil {
			_, err = do(e.c, http.MethodPost, e.ts.URL+path, "", body)
		}
		if err != nil {
			return fail(err)
		}
	}
	return e, nil
}

func runGrid(cfg config) (*outcome, error) {
	reps := cfg.sc.setupReps
	if cfg.traced {
		reps = 1
	}
	env, setupS, err := timeSetups(reps, func() (*gridEnv, error) { return newGridEnv(cfg) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	o := &outcome{setupS: setupS, layer: map[string]float64{}}

	var probes []*probe
	if cfg.traced {
		p, err := startProbe(env.c, env.coord, env.ts.URL)
		if err != nil {
			return nil, err
		}
		probes = append(probes, p)
		for _, w := range env.workers {
			// Workers are read through Stats only; their /metrics carry
			// no route the client called.
			probes = append(probes, &probe{srv: w, stBefore: w.Stats()})
		}
	}
	for _, hp := range env.proxies {
		hp.reset() // drop the set-up's hops
	}
	retriesBefore := env.coord.Stats().ShardRetries
	bodies := make([][]byte, cfg.sc.checkGrid)
	var samples []sample
	// One client: each shard hop belongs to the one request in flight.
	seqs := make([]int, 1)
	o.window, o.run = measureWindow(env.coord, func() []sample {
		samples, o.load = segmented(cfg.window(), func(d time.Duration) []sample {
			return closedLoop(seqs, d, func(_, i int, s *sample) {
				kind, path, _, body, err := gridRequest(cfg.seed, i)
				s.idx, s.kind = i, kind
				if err != nil {
					s.err = err
					return
				}
				rid := fmt.Sprintf("grid_sharded-%d", i)
				id := cfg.spans.newID()
				env.cur.Store(&inflight{rid: rid, span: id})
				resp, err := do(env.c, http.MethodPost, env.ts.URL+path, rid, body)
				env.cur.Store(nil)
				s.done, s.bytes, s.err = resp.done, len(resp.body), err
				cfg.spans.record(id, rid, 0, "client POST "+path, s.sent, s.done, s.bytes)
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
	tally(o, samples, func(s sample) bool { return s.kind == gridMatrix })
	if r := env.coord.Stats().ShardRetries - retriesBefore; r != 0 {
		o.failf("%d shards fell back to local compute in a healthy fleet", r)
	}

	// Replay the first requests on a lone server (no peers, no store):
	// the merged envelopes must be byte-identical to single-process ones.
	lone := serve.New(serve.Config{})
	lts := httptest.NewServer(lone.Handler())
	defer lts.Close()
	lc := newClient()
	defer lc.CloseIdleConnections()
	var d digest
	var loneMs, shardedMs float64
	for i, want := range bodies {
		_, path, _, body, err := gridRequest(cfg.seed, i)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		got, err := do(lc, http.MethodPost, lts.URL+path, "", body)
		if err != nil {
			o.failf("replaying request %d on a lone server: %v", i, err)
			break
		}
		d.add(got.body)
		if want == nil {
			continue // the window ended before the sharded server answered it
		}
		loneMs += float64(time.Since(start).Nanoseconds()) / 1e6
		shardedMs += samples[i].latencyMs()
		if !bytes.Equal(got.body, want) {
			o.failf("request %d: sharded response differs from a lone server's", i)
		}
	}
	o.digest = d.sum()

	if cfg.traced {
		for _, p := range probes {
			if err := p.finish(env.c); err != nil {
				return nil, err
			}
		}
		serveLayers(o.layer, probes, []string{"POST /v1/matrix", "POST /v1/sweeps"}, samples, 100, o.window)
		if err := gridLayers(o.layer, cfg, env, probes[0], samples, o.window); err != nil {
			return nil, err
		}
		if shardedMs > 0 {
			o.layer["shards.speedup_vs_local"] = loneMs / shardedMs
		}
	}
	return o, nil
}

// gridLayers fills the scenario, shard and grid per-layer metrics and
// runs the library replay over the sweep's cycles.
func gridLayers(layer map[string]float64, cfg config, env *gridEnv, coord *probe, samples []sample, window time.Duration) error {
	var expandMs, cells, sweepMs []float64
	matrices := 0
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if s.kind == gridSweep {
			sweepMs = append(sweepMs, s.latencyMs())
			continue
		}
		matrices++
		_, _, seed, _, _ := gridRequest(cfg.seed, s.idx)
		m := gridSpec(seed)
		start := time.Now()
		n, err := m.Normalize()
		if err != nil {
			return err
		}
		ex, err := n.Expand()
		if err != nil {
			return err
		}
		expandMs = append(expandMs, float64(time.Since(start).Nanoseconds())/1e6)
		cells = append(cells, float64(len(ex.Cells)))
	}
	layer["scenario.expand_ms_mean"] = mean(expandMs)
	layer["scenario.cells_mean"] = mean(cells)
	layer["grid.cells_per_s"] = mean(cells) * float64(matrices) / window.Seconds()
	layer["grid.sweep_ms_p50"] = pct(sweepMs, 50)
	layer["grid.sweep_ms_p90"] = pct(sweepMs, 90)

	var rtt, kb []float64
	for _, hp := range env.proxies {
		r, k := hp.hops()
		rtt, kb = append(rtt, r...), append(kb, k...)
	}
	if n := len(samples); n > 0 {
		layer["shards.per_req"] = float64(len(rtt)) / float64(n)
	}
	layer["shards.rtt_ms_p50"] = pct(rtt, 50)
	layer["shards.rtt_ms_p90"] = pct(rtt, 90)
	layer["shards.kb_mean"] = mean(kb)
	layer["shards.retries"] = coord.stat(func(s serve.Stats) int64 { return s.ShardRetries })

	var jobs []libJob
	for si, sch := range libSchemes {
		for k, cyc := range gridSweepCycles {
			tr, err := cycleTrace(cyc, gridCellS)
			if err != nil {
				return err
			}
			_, _, seed, _, _ := gridRequest(cfg.seed, 2*(si*len(gridSweepCycles)+k)+1)
			jobs = append(jobs, libJob{scheme: sch, modules: 100, seed: seed, tr: tr, ticks: ticksOf(gridCellS)})
		}
	}
	return libraryReplay(layer, jobs, cfg.spans)
}
