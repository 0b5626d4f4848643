// Request schema and normalization for the v1 HTTP API. Every request
// is reduced to a fully-defaulted form before anything runs: runs,
// sweeps and matrices to a normalized scenario matrix, twin sessions to
// physics. Either way cycle/scheme identities come from the two
// registries, the paper's settings fill omitted knobs, and the
// server's resource bounds are enforced — so the canonical cache key
// (canonical.go) and the simulation both see exactly one spelling of
// each request.

package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"tegrecon/internal/core"
	"tegrecon/internal/sim"
)

// RunRequest is the POST /v1/runs body: one scheme over one standard
// drive cycle, run as the one cell of the scenario matrix it translates
// to (see Server.runMatrix): with Battery off its result is that cell's
// bit for bit.
// Zero values mean "paper default" (0.5 s tick, 0.1 °C sensor noise,
// base seed 7, 100 modules, horizon 4, full cycle length); pointer
// fields exist where zero is itself meaningful.
type RunRequest struct {
	// Cycle names a registered standard drive cycle (GET /v1/cycles).
	Cycle string `json:"cycle"`
	// Scheme names a registered reconfiguration scheme (GET /v1/schemes)
	// or a DNOR variant such as "DNOR:horizon=8", as a matrix's scheme
	// axis accepts.
	Scheme string `json:"scheme"`
	// DurationS caps the simulated span in seconds (the matrix's
	// max_duration_s); 0 runs the full published cycle. A cap must
	// cover one control period and one 0.5 s trace sample.
	DurationS float64 `json:"duration_s,omitempty"`
	// TickS is the control period in seconds (0 → 0.5).
	TickS float64 `json:"tick_s,omitempty"`
	// Seed is the matrix's base seed (nil or 0 → 7); the sensor-noise
	// RNG is seeded from it and the cell's coordinate.
	Seed *int64 `json:"seed,omitempty"`
	// SensorNoiseC is the temperature sensing noise σ in °C (nil → 0.1).
	SensorNoiseC *float64 `json:"sensor_noise_c,omitempty"`
	// Modules is the TEG module count (0 → 100).
	Modules int `json:"modules,omitempty"`
	// HorizonTicks is DNOR's prediction horizon (0 → 4).
	HorizonTicks int `json:"horizon_ticks,omitempty"`
	// Battery terminates the chain in the lead-acid battery.
	Battery bool `json:"battery,omitempty"`
	// Ticks includes the per-control-period records in the response
	// payload (non-streaming requests only).
	Ticks bool `json:"ticks,omitempty"`
	// Stream switches the response to Server-Sent Events: one `tick`
	// event per control period, closed by a `summary` event. Sending
	// `Accept: text/event-stream` does the same.
	Stream bool `json:"stream,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body: a cycle × scheme matrix,
// answered as a rendering of scenario-matrix cells (see sweepMatrix).
type SweepRequest struct {
	// Cycles selects workloads by name; empty runs every registered
	// cycle.
	Cycles []string `json:"cycles,omitempty"`
	// Schemes selects schemes by name; empty runs the whole registry.
	Schemes []string `json:"schemes,omitempty"`
	// MaxDurationS caps each cycle's span; 0 runs full schedules.
	MaxDurationS float64  `json:"max_duration_s,omitempty"`
	TickS        float64  `json:"tick_s,omitempty"`
	Seed         *int64   `json:"seed,omitempty"`
	SensorNoiseC *float64 `json:"sensor_noise_c,omitempty"`
	Modules      int      `json:"modules,omitempty"`
	HorizonTicks int      `json:"horizon_ticks,omitempty"`
}

// physics is a twin session's knobs after normalization: the scheme
// resolved, every default applied, all bounds checked. build turns it
// into what the engine consumes.
type physics struct {
	scheme    sim.Scheme
	tickS     float64
	noiseC    float64
	seed      int64
	modules   int
	horizon   int
	battery   bool
	keepTicks bool
}

// httpError is a client-visible failure with its status code.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// defaultOpts mirrors the paper's settings the API defaults to.
var defaultOpts = sim.DefaultOptions()

// orDefault reads an optional request field.
func orDefault[T any](v *T, def T) T {
	if v == nil {
		return def
	}
	return *v
}

// lookupScheme resolves a request's scheme name.
func lookupScheme(name string) (sim.Scheme, *httpError) {
	if name == "" {
		return sim.Scheme{}, errf(http.StatusBadRequest, "missing scheme (GET /v1/schemes lists them)")
	}
	sch, err := sim.SchemeByName(name)
	if err != nil {
		return sim.Scheme{}, errf(http.StatusBadRequest, "%v", err)
	}
	return sch, nil
}

// normalizePhysics applies the paper's defaults to the zero-valued
// knobs and checks every bound. The optional fields (seed, sensor
// noise) arrive already defaulted by orDefault.
func (s *Server) normalizePhysics(ph physics) (physics, *httpError) {
	if ph.tickS == 0 {
		ph.tickS = defaultOpts.TickSeconds
	}
	if math.IsNaN(ph.tickS) || math.IsInf(ph.tickS, 0) || ph.tickS <= 0 {
		return ph, errf(http.StatusBadRequest, "tick_s %g is not a positive finite number of seconds", ph.tickS)
	}
	// An absurd control period is a client error, not a simulation to
	// attempt: energy integrates as power × tick_s, so near-MaxFloat64
	// periods overflow the accounting to +Inf deep in the engine.
	if ph.tickS > 3600 {
		return ph, errf(http.StatusBadRequest, "tick_s %g is over the 3600 s limit", ph.tickS)
	}
	if n := ph.noiseC; !(n >= 0 && n <= sim.MaxSensorNoiseC) {
		return ph, errf(http.StatusBadRequest, "sensor_noise_c %g outside [0, %g]", n, sim.MaxSensorNoiseC)
	}
	if ph.modules == 0 {
		ph.modules = 100
	}
	if ph.modules < 1 || ph.modules > s.cfg.MaxModules {
		return ph, errf(http.StatusBadRequest, "modules %d outside 1..%d", ph.modules, s.cfg.MaxModules)
	}
	if ph.horizon == 0 {
		ph.horizon = 4
	}
	if ph.horizon < 1 || ph.horizon > sim.MaxHorizonTicks {
		return ph, errf(http.StatusBadRequest, "horizon_ticks %d outside [1, %d]", ph.horizon, sim.MaxHorizonTicks)
	}
	return ph, nil
}

// build makes the system, controller and options a fresh twin session
// runs on; sim.NewSession consumes them as they are.
func (ph physics) build(phaseSampleEvery int) (*sim.System, core.Controller, sim.Options, error) {
	sys := sim.DefaultSystem()
	sys.Modules = ph.modules
	ctrl, err := ph.scheme.New(sys, sim.SchemeConfig{HorizonTicks: ph.horizon, TickSeconds: ph.tickS})
	if err != nil {
		return nil, nil, sim.Options{}, err
	}
	opts := sim.DefaultOptions()
	opts.TickSeconds = ph.tickS
	opts.SensorNoiseC = ph.noiseC
	opts.Seed = ph.seed
	opts.Battery = ph.battery
	opts.KeepTicks = ph.keepTicks
	opts.PhaseSampleEvery = phaseSampleEvery
	return sys, ctrl, opts, nil
}

// decodeJSON reads a bounded request body strictly: unknown fields are
// typos the client should hear about, not silently dropped knobs.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return errf(http.StatusBadRequest, "decoding request body: %v", err)
	}
	return nil
}
