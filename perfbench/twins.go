package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"time"

	"tegrecon/internal/serve"
)

const (
	twinModules   = 500
	twinBatch     = 8 // ticks per step request
	twinsPerSched = 3 // one twin per reconfiguring scheme and client
	twinClients   = 2
)

// twinSeed is the sensor-noise seed of twin t.
func twinSeed(seed int64, t int) int64 { return newRand(seed, "twins_n500", t).seed() }

// twinScheme is twin t's scheme: each client drives one twin of each.
func twinScheme(t int) string { return libSchemes[t%twinsPerSched] }

type twinsEnv struct {
	srv *serve.Server
	ts  *httptest.Server
	c   *http.Client
	ids []string
}

func (e *twinsEnv) close() {
	e.c.CloseIdleConnections()
	e.ts.Close()
}

func (e *twinsEnv) create(scheme string, seed int64) (string, error) {
	body, err := json.Marshal(serve.SessionCreateRequest{Scheme: scheme, Seed: &seed, Modules: twinModules})
	if err != nil {
		return "", err
	}
	resp, err := do(e.c, http.MethodPost, e.ts.URL+"/v1/sessions", "", body)
	if err != nil {
		return "", err
	}
	var out struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil || out.Session.ID == "" {
		return "", fmt.Errorf("creating a %s twin: %q: %v", scheme, resp.body, err)
	}
	return out.Session.ID, nil
}

var stepBody = []byte(fmt.Sprintf(`{"cycle":"wltc","ticks":%d}`, twinBatch))

func (e *twinsEnv) step(id, rid string) (call, error) {
	return do(e.c, http.MethodPost, e.ts.URL+"/v1/sessions/"+id+"/step", rid, stepBody)
}

// newTwinsEnv starts a server, opens the six measured twins and warms
// each scheme's step path on a throwaway twin.
func newTwinsEnv(cfg config) (*twinsEnv, error) {
	srv := serve.New(serve.Config{PhaseSampleEvery: cfg.phaseSampleEvery()})
	e := &twinsEnv{srv: srv, ts: httptest.NewServer(cfg.handler(srv.Handler())), c: newClient()}
	fail := func(err error) (*twinsEnv, error) {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	for k, sch := range libSchemes {
		id, err := e.create(sch, int64(-1-k))
		if err != nil {
			return fail(err)
		}
		if _, err := e.step(id, ""); err != nil {
			return fail(err)
		}
		if _, err := do(e.c, http.MethodDelete, e.ts.URL+"/v1/sessions/"+id, "", nil); err != nil {
			return fail(err)
		}
	}
	for t := 0; t < twinClients*twinsPerSched; t++ {
		id, err := e.create(twinScheme(t), twinSeed(cfg.seed, t))
		if err != nil {
			return fail(err)
		}
		e.ids = append(e.ids, id)
	}
	return e, nil
}

// stepReply is the part of a step response the checks read.
type stepReply struct {
	TicksApplied int `json:"ticks_applied"`
	Session      struct {
		Steps int `json:"steps"`
	} `json:"session"`
}

var (
	twinIDField  = regexp.MustCompile(`"id":"[^"]*"`)
	twinAgeField = regexp.MustCompile(`"age_s":[-+0-9.eE]+`)
)

// projectStep drops the two fields of a step response that are not
// physics — the random twin ID and its wall-clock age — so replies are
// comparable across servers and runs.
func projectStep(body []byte) []byte {
	body = twinIDField.ReplaceAll(body, []byte(`"id":""`))
	return twinAgeField.ReplaceAll(body, []byte(`"age_s":0`))
}

func runTwins(cfg config) (*outcome, error) {
	reps := cfg.sc.setupReps
	if cfg.traced {
		reps = 1
	}
	env, setupS, err := timeSetups(reps, func() (*twinsEnv, error) { return newTwinsEnv(cfg) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	o := &outcome{setupS: setupS, layer: map[string]float64{}}
	tr, err := cycleTrace("wltc", 0)
	if err != nil {
		return nil, err
	}
	// The last session step a batch may start from without sampling
	// past the end of the twin's drive source.
	lastStart := int((tr.Times[0]+tr.Duration())/0.5) - (twinBatch - 1)

	var p *probe
	if cfg.traced {
		if p, err = startProbe(env.c, env.srv, env.ts.URL); err != nil {
			return nil, err
		}
	}
	// Each twin is touched only by the client that owns it, so its
	// state needs no lock.
	type twinState struct {
		steps  int      // session steps the server reported
		first  bool     // still the first instance of the twin
		bodies [][]byte // its first checkSteps projected replies
	}
	twins := make([]twinState, len(env.ids))
	for t := range twins {
		twins[t].first = true
	}
	var samples []sample
	seqs := make([]int, twinClients)
	o.window, o.run = measureWindow(env.srv, func() []sample {
		samples, o.load = segmented(cfg.window(), func(d time.Duration) []sample {
			return closedLoop(seqs, d, func(c, seq int, s *sample) {
				t := c*twinsPerSched + seq%twinsPerSched
				tw := &twins[t]
				s.idx = t<<32 | seq/twinsPerSched
				if tw.steps > lastStart {
					// The twin reached the end of its drive source: start
					// it again.
					if _, err := do(env.c, http.MethodDelete, env.ts.URL+"/v1/sessions/"+env.ids[t], "", nil); err != nil {
						s.err = err
						return
					}
					id, err := env.create(twinScheme(t), twinSeed(cfg.seed, t))
					if err != nil {
						s.err = err
						return
					}
					env.ids[t], tw.steps, tw.first = id, 0, false
					now := time.Now()
					s.due, s.sent = now, now
				}
				rid := fmt.Sprintf("twins_n500-%d-%d", t, seq/twinsPerSched)
				resp, err := env.step(env.ids[t], rid)
				s.done, s.bytes, s.err = resp.done, len(resp.body), err
				cfg.spans.record(cfg.spans.newID(), rid, 0, "client POST /v1/sessions/{id}/step", s.sent, s.done, s.bytes)
				if err != nil {
					return
				}
				var r stepReply
				if err := json.Unmarshal(resp.body, &r); err != nil {
					s.err = err
					return
				}
				if r.TicksApplied != twinBatch || r.Session.Steps != tw.steps+twinBatch {
					s.err = fmt.Errorf("twin %d: step applied %d ticks and reached step %d, want %d ticks to step %d",
						t, r.TicksApplied, r.Session.Steps, twinBatch, tw.steps+twinBatch)
				}
				tw.steps = r.Session.Steps
				if tw.first && len(tw.bodies) < cfg.sc.checkSteps {
					tw.bodies = append(tw.bodies, projectStep(resp.body))
				}
			})
		})
		return samples
	})
	tally(o, samples, nil)

	// Walk the same twins on a fresh server: their first replies must be
	// identical apart from ID and age.
	fresh, err := newTwinsEnv(config{seed: cfg.seed, sc: cfg.sc})
	if err != nil {
		return nil, err
	}
	defer fresh.close()
	var d digest
	for t, tw := range twins {
		for k := 0; k < cfg.sc.checkSteps; k++ {
			got, err := fresh.step(fresh.ids[t], "")
			if err != nil {
				o.failf("replaying twin %d step %d: %v", t, k, err)
				break
			}
			reply := projectStep(got.body)
			if k < len(tw.bodies) && !bytes.Equal(reply, tw.bodies[k]) {
				o.failf("twin %d step %d: reply differs from a fresh server's", t, k)
			}
			d.add(reply)
		}
	}
	o.digest = d.sum()

	if cfg.traced {
		if err := p.finish(env.c); err != nil {
			return nil, err
		}
		serveLayers(o.layer, []*probe{p}, []string{"POST /v1/sessions/{id}/step"}, samples, twinModules, o.window)
		var jobs []libJob
		for t := 0; t < twinsPerSched; t++ {
			jobs = append(jobs, libJob{scheme: twinScheme(t), modules: twinModules, seed: twinSeed(cfg.seed, t), tr: tr, ticks: cfg.sc.libTicks})
		}
		if err := libraryReplay(o.layer, jobs, cfg.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}
