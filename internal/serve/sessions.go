// Digital-twin sessions: long-lived sim.Sessions held open across
// requests, so a client can mirror a vehicle that exists in real time —
// feed the boundary conditions its sensors actually measured, tick by
// tick or in batches, and read the accumulated energy ledger at any
// point. This is the interactive counterpart to /v1/runs' replay-then-
// answer shape, and the serving surface for the Session engine's
// checkpoint subsystem (sim.Snapshot / sim.RestoreSession encoded by
// report.MarshalCheckpoint):
//
//	POST   /v1/sessions                  create (fresh, or restore with
//	                                     "from_checkpoint")
//	GET    /v1/sessions                  list open sessions
//	GET    /v1/sessions/{id}             summary
//	POST   /v1/sessions/{id}/step        advance: explicit conditions,
//	                                     a named cycle, or a CSV log
//	GET    /v1/sessions/{id}/checkpoint  versioned checkpoint JSON
//	DELETE /v1/sessions/{id}             close
//
// Registry discipline: at most Config.MaxSessions live at once
// (creates beyond the cap are shed with 503), and sessions idle past
// Config.SessionIdleTTL are evicted opportunistically on the next
// create or list — no janitor goroutine, so the server still quiesces
// completely between requests.
//
// Ownership rule (the result-aliasing fix this subsystem enforces):
// sim.Session.Result returns the live accumulator, mutated in place by
// every Step. Any Result that escapes a handler — summary fields,
// checkpoint payloads — is taken via Result().Clone() *under the
// per-session mutex that serializes Step*, so a concurrent step can
// never mutate a payload mid-marshal (pinned by a -race test).
//
// Drain semantics: a draining server refuses further steps (the twin
// is sealed) but keeps summaries and checkpoints readable through the
// grace window, so clients checkpoint their sessions and re-create
// them elsewhere — checkpoint-and-close, not data loss.

package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/obs"
	"tegrecon/internal/report"
	"tegrecon/internal/sim"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// twinSession is one registry entry: a live sim.Session plus the mutex
// that serializes every touch of it. All engine access — Step,
// Snapshot, Result — happens under mu; registry bookkeeping (lastUsed)
// is guarded by the registry's own lock.
type twinSession struct {
	id      string
	scheme  string
	modules int
	created time.Time

	mu   sync.Mutex // serializes Step / Snapshot / Result on sess
	sess *sim.Session
}

// sessionRegistry is the bounded id → twinSession table.
type sessionRegistry struct {
	mu       sync.Mutex
	entries  map[string]*twinSession
	lastUsed map[string]time.Time
	max      int
	ttl      time.Duration
}

func newSessionRegistry(max int, ttl time.Duration) *sessionRegistry {
	return &sessionRegistry{
		entries:  make(map[string]*twinSession),
		lastUsed: make(map[string]time.Time),
		max:      max,
		ttl:      ttl,
	}
}

// sweepLocked evicts entries idle past the TTL. Callers hold r.mu.
func (r *sessionRegistry) sweepLocked(now time.Time) (evicted int) {
	for id, used := range r.lastUsed {
		if now.Sub(used) > r.ttl {
			delete(r.entries, id)
			delete(r.lastUsed, id)
			evicted++
		}
	}
	return evicted
}

// full sweeps idle sessions and reports whether the registry is at
// capacity. It is the cheap admission pre-check a create runs before
// paying for session construction (in particular a checkpoint
// restore's RNG replay); add re-checks under its own lock at insert
// time, so a lost race still sheds correctly — this just stops the
// certainly-doomed requests from doing the work first.
func (r *sessionRegistry) full(now time.Time) (evicted int, full bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted = r.sweepLocked(now)
	return evicted, len(r.entries) >= r.max
}

// add sweeps idle sessions, then admits the entry if the cap allows.
func (r *sessionRegistry) add(e *twinSession, now time.Time) (evicted int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted = r.sweepLocked(now)
	if len(r.entries) >= r.max {
		return evicted, false
	}
	r.entries[e.id] = e
	r.lastUsed[e.id] = now
	return evicted, true
}

// get returns the entry and refreshes its idle clock.
func (r *sessionRegistry) get(id string, now time.Time) (*twinSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if ok {
		r.lastUsed[id] = now
	}
	return e, ok
}

// remove deletes the entry, reporting whether it existed.
func (r *sessionRegistry) remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[id]
	delete(r.entries, id)
	delete(r.lastUsed, id)
	return ok
}

// list sweeps, then returns the surviving entries with their idle
// clocks, sorted by id for a stable response.
func (r *sessionRegistry) list(now time.Time) ([]*twinSession, []time.Time, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	evicted := r.sweepLocked(now)
	out := make([]*twinSession, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	used := make([]time.Time, len(out))
	for i, e := range out {
		used[i] = r.lastUsed[e.id]
	}
	return out, used, evicted
}

func (r *sessionRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// noteEvicted accounts (and logs) a registry sweep's TTL evictions.
func (s *Server) noteEvicted(n int) {
	if n > 0 {
		s.met.sessionsEvicted.Add(int64(n))
		s.log.Info("idle sessions evicted", "count", n, "ttl_s", s.cfg.SessionIdleTTL.Seconds())
	}
}

func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return "tw-" + hex.EncodeToString(b[:]), nil
}

// --- request / response schema ---

// SessionCreateRequest is the POST /v1/sessions body. Either a fresh
// session (scheme plus the usual physics knobs, same defaults as
// /v1/runs) or a restore: "from_checkpoint" carries the verbatim
// payload of GET /v1/sessions/{id}/checkpoint and excludes every other
// field — a checkpoint already fixes the physics, and silently
// overriding part of it would break the bit-exact resume contract.
type SessionCreateRequest struct {
	Scheme       string   `json:"scheme,omitempty"`
	TickS        float64  `json:"tick_s,omitempty"`
	Seed         *int64   `json:"seed,omitempty"`
	SensorNoiseC *float64 `json:"sensor_noise_c,omitempty"`
	Modules      int      `json:"modules,omitempty"`
	HorizonTicks int      `json:"horizon_ticks,omitempty"`
	Battery      bool     `json:"battery,omitempty"`
	// Ticks keeps the per-control-period records in the session result
	// (and therefore in its checkpoints).
	Ticks bool `json:"ticks,omitempty"`
	// FromCheckpoint restores a session from a checkpoint payload.
	FromCheckpoint json.RawMessage `json:"from_checkpoint,omitempty"`
}

// SessionStepRequest is the POST /v1/sessions/{id}/step body. Exactly
// one condition source:
//
//   - "conditions": explicit boundary conditions, one per control
//     period — the live-mirror path.
//   - "cycle" (+ "ticks", default 1): sample a registered drive cycle
//     at the session's own clock, so repeated steps walk through the
//     cycle; stepping past its end is a 400.
//   - "csv" (+ "channel", + "ticks"): same, over an uploaded speed log
//     in the trace CSV format (drive.ReadSchedule).
type SessionStepRequest struct {
	Conditions []ConditionsJSON `json:"conditions,omitempty"`
	Cycle      string           `json:"cycle,omitempty"`
	CSV        string           `json:"csv,omitempty"`
	Channel    string           `json:"channel,omitempty"`
	Ticks      int              `json:"ticks,omitempty"`
	// ReturnTicks includes every applied tick in the response instead
	// of just the last one.
	ReturnTicks bool `json:"return_ticks,omitempty"`
}

// ConditionsJSON is thermal.Conditions on the wire.
type ConditionsJSON struct {
	CoolantInletC  float64 `json:"coolant_inlet_c"`
	CoolantFlowKgS float64 `json:"coolant_flow_kgs"`
	AirInletC      float64 `json:"air_inlet_c"`
	AirFlowKgS     float64 `json:"air_flow_kgs"`
}

func (c ConditionsJSON) conditions() thermal.Conditions {
	return thermal.Conditions{
		CoolantInletC:  c.CoolantInletC,
		CoolantFlowKgS: c.CoolantFlowKgS,
		AirInletC:      c.AirInletC,
		AirFlowKgS:     c.AirFlowKgS,
	}
}

// sessionSummary is the GET /v1/sessions/{id} body (and the "session"
// object other session responses embed): identity, clock position and
// the accumulated ledger.
type sessionSummary struct {
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
	AgeS         float64 `json:"age_s"`
}

// summary reads the session under its lock. The Result escapes the
// lock as a clone — never the live accumulator.
func (e *twinSession) summary(now time.Time) sessionSummary {
	e.mu.Lock()
	steps, nowS := e.sess.Steps(), e.sess.Now()
	res := e.sess.Result().Clone()
	e.mu.Unlock()
	return sessionSummary{
		ID:           e.id,
		Scheme:       e.scheme,
		Modules:      e.modules,
		Steps:        steps,
		NowS:         nowS,
		EnergyOutJ:   res.EnergyOutJ,
		OverheadJ:    res.OverheadJ,
		SwitchEvents: res.SwitchEvents,
		AvgTEGEff:    res.AvgTEGEff,
		BatteryJ:     res.BatteryJ,
		AgeS:         now.Sub(e.created).Seconds(),
	}
}

// --- handlers ---

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionCreateRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	if s.Draining() {
		s.writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	// Admission pre-check: a create that is going to be shed anyway must
	// not first pay for construction (restores replay the checkpoint's
	// whole RNG history). add() re-checks under its lock, so a race
	// between two creates for the last slot still resolves correctly.
	evicted, full := s.sessions.full(time.Now())
	s.noteEvicted(evicted)
	if full {
		s.writeJSONError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("session registry full (%d open), retry later or delete one", s.cfg.MaxSessions))
		return
	}
	var (
		sess     *sim.Session
		scheme   string
		modules  int
		restored bool
	)
	if len(req.FromCheckpoint) > 0 {
		if req.Scheme != "" || req.TickS != 0 || req.Seed != nil || req.SensorNoiseC != nil ||
			req.Modules != 0 || req.HorizonTicks != 0 || req.Battery || req.Ticks {
			s.writeJSONError(w, http.StatusBadRequest, "from_checkpoint excludes every other field — the checkpoint already fixes the physics")
			return
		}
		st, err := report.UnmarshalCheckpoint(req.FromCheckpoint)
		if err != nil {
			s.writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		if st.Modules < 1 || st.Modules > s.cfg.MaxModules {
			s.writeJSONError(w, http.StatusBadRequest,
				fmt.Sprintf("checkpoint modules %d outside 1..%d", st.Modules, s.cfg.MaxModules))
			return
		}
		// rng_draws is client-claimed progress that the restore replays
		// draw by draw. sim rejects positions beyond steps×modules, but
		// both factors are client-claimed too, so the server imposes its
		// own absolute ceiling — and runs the replay under the bounded
		// job queue with a cancelable context, like any other simulation
		// work, never unbounded on the handler goroutine.
		if st.RNGDraws > s.cfg.MaxRestoreDraws {
			s.writeJSONError(w, http.StatusBadRequest,
				fmt.Sprintf("checkpoint rng position %d over the server's %d-draw restore cap", st.RNGDraws, s.cfg.MaxRestoreDraws))
			return
		}
		sys := sim.DefaultSystem()
		sys.Modules = st.Modules
		err = s.job(r.Context(), func(ctx context.Context) error {
			var err error
			sess, err = sim.RestoreSession(ctx, sys, st)
			return err
		})
		if err != nil {
			if errors.Is(err, errQueueFull) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				s.writeJobError(w, r, err) // shed / drain / client gone, not a bad checkpoint
			} else {
				s.writeJSONError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		scheme, modules, restored = st.Scheme, st.Modules, true
	} else {
		sch, herr := lookupScheme(req.Scheme)
		if herr != nil {
			s.writeHTTPError(w, herr)
			return
		}
		ph, herr := s.normalizePhysics(physics{
			scheme:    sch,
			tickS:     req.TickS,
			noiseC:    orDefault(req.SensorNoiseC, defaultOpts.SensorNoiseC),
			seed:      orDefault(req.Seed, defaultOpts.Seed),
			modules:   req.Modules,
			horizon:   req.HorizonTicks,
			battery:   req.Battery,
			keepTicks: req.Ticks,
		})
		if herr != nil {
			s.writeHTTPError(w, herr)
			return
		}
		sys, ctrl, opts, err := ph.build(s.cfg.PhaseSampleEvery)
		if err == nil {
			sess, err = sim.NewSession(sys, ctrl, opts)
		}
		if err != nil {
			s.writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		scheme, modules = sch.Name, ph.modules
	}
	id, err := newSessionID()
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	now := time.Now()
	e := &twinSession{id: id, scheme: scheme, modules: modules, created: now, sess: sess}
	evicted, ok := s.sessions.add(e, now)
	s.noteEvicted(evicted)
	if !ok {
		s.writeJSONError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("session registry full (%d open), retry later or delete one", s.cfg.MaxSessions))
		return
	}
	s.met.sessionsCreated.Add(1)
	if restored {
		s.met.sessionsRestored.Add(1)
	}
	s.log.Info("session created",
		"session_id", id, "scheme", scheme, "modules", modules, "restored", restored,
		"request_id", obs.RequestID(r.Context()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]any{"session": e.summary(now)})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	entries, _, evicted := s.sessions.list(now)
	s.noteEvicted(evicted)
	out := struct {
		Sessions []sessionSummary `json:"sessions"`
	}{Sessions: make([]sessionSummary, 0, len(entries))}
	for _, e := range entries {
		out.Sessions = append(out.Sessions, e.summary(now))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.sessions.get(r.PathValue("id"), time.Now())
	if !ok {
		s.writeJSONError(w, http.StatusNotFound, "no such session")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"session": e.summary(time.Now())})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		s.writeJSONError(w, http.StatusNotFound, "no such session")
		return
	}
	s.log.Info("session deleted", "session_id", id, "request_id", obs.RequestID(r.Context()))
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	e, ok := s.sessions.get(r.PathValue("id"), time.Now())
	if !ok {
		s.writeJSONError(w, http.StatusNotFound, "no such session")
		return
	}
	// Snapshot under the step lock: the state must be a consistent
	// between-ticks cut, not a torn read of a stepping session.
	e.mu.Lock()
	st, err := e.sess.Snapshot()
	e.mu.Unlock()
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	payload, err := report.MarshalCheckpoint(st)
	if err != nil {
		s.writeJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.checkpoints.Add(1)
	writePayload(w, "bypass", payload)
}

// stepSource is a step request reduced to where its conditions come
// from: an explicit sequence, or a synthesized drive trace still to be
// sampled at the twin's clock (a named cycle's trace is shared across
// requests and only read). The sampling is deliberately deferred:
// the clock read and the steps it positions must happen under one
// continuous hold of the session mutex, or a concurrent step on the
// same session advances the clock in between and the source segment
// replays overlapped — breaking the "continues the source where it
// left off" contiguity contract.
type stepSource struct {
	conds []thermal.Conditions // explicit conditions, or nil
	tr    *trace.Trace         // drive source (cycle / csv), or nil
	ticks int                  // periods to sample from tr
}

// parseStepSource validates a step request and builds its source. No
// session state is consulted — everything here is safe before the job
// queue and outside the session lock.
func (s *Server) parseStepSource(req SessionStepRequest) (*stepSource, *httpError) {
	sources := 0
	if len(req.Conditions) > 0 {
		sources++
	}
	if req.Cycle != "" {
		sources++
	}
	if req.CSV != "" {
		sources++
	}
	if sources != 1 {
		return nil, errf(http.StatusBadRequest, "exactly one of conditions, cycle or csv must be given")
	}
	if len(req.Conditions) > 0 {
		if req.Ticks != 0 {
			return nil, errf(http.StatusBadRequest, "ticks applies to cycle/csv sources; conditions carry their own count")
		}
		if len(req.Conditions) > s.cfg.MaxTicksPerJob {
			return nil, errf(http.StatusBadRequest, "%d conditions over the server's %d-tick limit", len(req.Conditions), s.cfg.MaxTicksPerJob)
		}
		conds := make([]thermal.Conditions, len(req.Conditions))
		for i, c := range req.Conditions {
			conds[i] = c.conditions()
			if err := conds[i].Validate(); err != nil {
				return nil, errf(http.StatusBadRequest, "conditions[%d]: %v", i, err)
			}
		}
		return &stepSource{conds: conds}, nil
	}
	ticks := req.Ticks
	if ticks == 0 {
		ticks = 1
	}
	if ticks < 1 || ticks > s.cfg.MaxTicksPerJob {
		return nil, errf(http.StatusBadRequest, "ticks %d outside 1..%d", ticks, s.cfg.MaxTicksPerJob)
	}
	if req.Cycle != "" {
		cycle, err := drive.CycleByName(req.Cycle)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		tr, err := cycleTraces[cycle.Name]()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		return &stepSource{tr: tr, ticks: ticks}, nil
	}
	sched, err := drive.ReadSchedule(strings.NewReader(req.CSV), req.Channel)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "csv: %v", err)
	}
	tr, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), sched)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	return &stepSource{tr: tr, ticks: ticks}, nil
}

// cycleTraces holds, per registered cycle name, the trace that cycle
// synthesizes under the default synth config, built on first use. The
// synthesis is deterministic, so every twin stepping through a named
// cycle can share one trace instead of re-synthesizing it per request;
// sampling it (drive.ConditionsAt, trace.At) only reads it, and
// sync.OnceValues makes the first build safe under concurrent
// steppers and releases the builder once it has run, so only the
// trace itself stays resident.
var cycleTraces = func() map[string]func() (*trace.Trace, error) {
	m := make(map[string]func() (*trace.Trace, error))
	for _, c := range drive.Cycles() {
		m[c.Name] = sync.OnceValues(func() (*trace.Trace, error) {
			return c.Synthesize(drive.DefaultSynthConfig())
		})
	}
	return m
}()

// sample materializes the condition sequence at the twin's current
// clock: a session that has lived 0..now_s continues the source where
// it left off. Callers hold the session mutex and keep holding it
// through the steps these conditions drive — that single critical
// section is what makes consecutive batches walk the source
// contiguously under concurrent steppers.
func (src *stepSource) sample(nowS, tickS float64) ([]thermal.Conditions, *httpError) {
	if src.conds != nil {
		return src.conds, nil
	}
	end := src.tr.Times[0] + src.tr.Duration()
	conds := make([]thermal.Conditions, src.ticks)
	for k := range conds {
		t := nowS + float64(k)*tickS
		// trace.At clamps past the last sample; a twin silently frozen
		// on the source's final row would be wrong, not convenient.
		if t > end {
			return nil, errf(http.StatusBadRequest, "t=%g past the source's end (%g s) — the twin has outlived this drive source", t, end)
		}
		var err error
		conds[k], err = drive.ConditionsAt(src.tr, t)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "t=%g: %v", t, err)
		}
	}
	return conds, nil
}

func (s *Server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	e, ok := s.sessions.get(r.PathValue("id"), time.Now())
	if !ok {
		s.writeJSONError(w, http.StatusNotFound, "no such session")
		return
	}
	if s.Draining() {
		// The twin is sealed: no more state advances, but its checkpoint
		// stays fetchable through the drain grace window.
		s.writeJSONError(w, http.StatusServiceUnavailable,
			"server draining — session sealed; fetch its checkpoint and restore elsewhere")
		return
	}
	var req SessionStepRequest
	if herr := decodeJSON(w, r, &req); herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	src, herr := s.parseStepSource(req)
	if herr != nil {
		s.writeHTTPError(w, herr)
		return
	}
	// Stepping is real simulation work; it runs as a job under the same
	// bounded queue as runs and sweeps so a flood of large step batches
	// cannot oversubscribe the host.
	var (
		conds      []thermal.Conditions
		ticks      []json.RawMessage
		omitted    int   // ticks applied but not marshaled
		marshalErr error // last MarshalTick failure
	)
	err := s.job(r.Context(), func(ctx context.Context) error {
		// One continuous hold of e.mu from the clock read through the last
		// Step: sampling the drive source and applying its ticks must be a
		// single critical section, or a concurrent step on the same
		// session moves the clock between them and the source segment
		// replays overlapped.
		e.mu.Lock()
		defer e.mu.Unlock()
		phasesBefore := e.sess.PhaseTimings()
		if conds, herr = src.sample(e.sess.Now(), e.sess.TickSeconds()); herr != nil {
			return herr
		}
		for i, c := range conds {
			if err := ctx.Err(); err != nil {
				return err
			}
			tick, err := e.sess.Step(c)
			if err != nil {
				return errf(http.StatusInternalServerError, "step %d of %d: %v", i+1, len(conds), err)
			}
			s.met.ticks.Add(1)
			s.met.sessionSteps.Add(1)
			if req.ReturnTicks || i == len(conds)-1 {
				if b, merr := report.MarshalTick(tick); merr == nil {
					if !req.ReturnTicks {
						ticks = ticks[:0]
					}
					ticks = append(ticks, b)
				} else {
					omitted++
					marshalErr = merr
				}
			}
		}
		// Fold this batch's sampled phase timings into the service
		// aggregate — the delta, because the session accumulator is
		// cumulative and a long-lived twin is stepped through many
		// requests.
		s.phases.add(phaseDelta(phasesBefore, e.sess.PhaseTimings()))
		return nil
	})
	switch {
	case errors.As(err, &herr):
		s.writeHTTPError(w, herr)
		return
	case err != nil:
		s.writeJobError(w, r, err)
		return
	}
	summary := e.summary(time.Now())

	out := map[string]any{
		"session":       summary,
		"ticks_applied": len(conds),
	}
	if req.ReturnTicks {
		out["ticks"] = ticks
	} else if len(ticks) > 0 {
		out["last_tick"] = ticks[0]
	}
	if omitted > 0 {
		// The steps were applied — the session advanced — so this is
		// not a failure of the request, but the client must not mistake
		// missing ticks for ticks that never ran.
		out["ticks_omitted"] = omitted
		out["tick_marshal_error"] = marshalErr.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
