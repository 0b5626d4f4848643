// Request schema and normalization for the v1 HTTP API. Every request
// is reduced to a fully-defaulted params value before anything runs:
// canonical cycle/scheme identities from the two registries, the
// paper's settings filled in for omitted knobs, and the server's
// resource bounds enforced — so the canonical cache key (canonical.go)
// and the simulation both see exactly one spelling of each request.

package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"tegrecon/internal/drive"
	"tegrecon/internal/sim"
)

// RunRequest is the POST /v1/runs body: one scheme over one standard
// drive cycle. Zero values mean "paper default" (0.5 s tick, 0.1 °C
// sensor noise, seed 7, 100 modules, horizon 4, full cycle length);
// pointer fields exist where zero is itself meaningful.
type RunRequest struct {
	// Cycle names a registered standard drive cycle (GET /v1/cycles).
	Cycle string `json:"cycle"`
	// Scheme names a registered reconfiguration scheme (GET /v1/schemes).
	Scheme string `json:"scheme"`
	// DurationS caps the simulated span in seconds; 0 runs the full
	// published cycle.
	DurationS float64 `json:"duration_s,omitempty"`
	// TickS is the control period in seconds (0 → 0.5).
	TickS float64 `json:"tick_s,omitempty"`
	// Seed drives the sensor-noise RNG (nil → 7).
	Seed *int64 `json:"seed,omitempty"`
	// SensorNoiseC is the temperature sensing noise σ in °C (nil → 0.1).
	SensorNoiseC *float64 `json:"sensor_noise_c,omitempty"`
	// Modules is the TEG module count (0 → 100).
	Modules int `json:"modules,omitempty"`
	// HorizonTicks is DNOR's prediction horizon (0 → 4).
	HorizonTicks int `json:"horizon_ticks,omitempty"`
	// Battery terminates the chain in the lead-acid battery.
	Battery bool `json:"battery,omitempty"`
	// DeterministicRuntime prices switching with zero compute time,
	// making the run bit-reproducible — and therefore cacheable (nil →
	// true). Set false for the paper's measured-runtime accounting;
	// such runs always execute.
	DeterministicRuntime *bool `json:"deterministic_runtime,omitempty"`
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
// Sweeps always run with deterministic runtime pricing, so every
// sweep is cacheable.
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

// runParams is a RunRequest after normalization: registry identities
// resolved, every default applied, all bounds checked.
type runParams struct {
	cycle      drive.Cycle
	scheme     sim.Scheme
	durationS  float64 // effective simulated span (never 0, never past the cycle end)
	tickS      float64
	noiseC     float64
	seed       int64
	modules    int
	horizon    int
	battery    bool
	detRuntime bool
	keepTicks  bool
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

// normalizeShared validates the knobs runs and twin sessions share,
// applying defaults in place.
func (s *Server) normalizeShared(tickS *float64, seed **int64, noise **float64, modules, horizon *int) *httpError {
	if *tickS == 0 {
		*tickS = defaultOpts.TickSeconds
	}
	if math.IsNaN(*tickS) || math.IsInf(*tickS, 0) || *tickS <= 0 {
		return errf(http.StatusBadRequest, "tick_s %g is not a positive finite number of seconds", *tickS)
	}
	// An absurd control period is a client error, not a simulation to
	// attempt: energy integrates as power × tick_s, so near-MaxFloat64
	// periods overflow the accounting to +Inf deep in the engine.
	if *tickS > 3600 {
		return errf(http.StatusBadRequest, "tick_s %g is over the 3600 s limit", *tickS)
	}
	if *seed == nil {
		v := defaultOpts.Seed
		*seed = &v
	}
	if *noise == nil {
		v := defaultOpts.SensorNoiseC
		*noise = &v
	}
	if n := **noise; math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
		return errf(http.StatusBadRequest, "sensor_noise_c %g is not a non-negative finite °C", **noise)
	}
	if *modules == 0 {
		*modules = 100
	}
	if *modules < 1 || *modules > s.cfg.MaxModules {
		return errf(http.StatusBadRequest, "modules %d outside 1..%d", *modules, s.cfg.MaxModules)
	}
	if *horizon == 0 {
		*horizon = 4
	}
	if *horizon < 0 {
		return errf(http.StatusBadRequest, "horizon_ticks %d is negative", *horizon)
	}
	return nil
}

// effectiveDuration clamps a requested span onto the cycle: 0 or
// anything past the schedule end means the full published length —
// the same rule drive.FromSpeedSchedule applies, made explicit here so
// equivalent requests share one canonical form.
func effectiveDuration(c drive.Cycle, requested float64) float64 {
	if requested <= 0 || requested > c.DurationS {
		return c.DurationS
	}
	return requested
}

func ticksFor(durationS, tickS float64) float64 {
	return math.Floor(durationS/tickS) + 1
}

func (s *Server) normalizeRun(req RunRequest) (runParams, *httpError) {
	var p runParams
	if req.Cycle == "" {
		return p, errf(http.StatusBadRequest, "missing cycle (GET /v1/cycles lists them)")
	}
	cycle, err := drive.CycleByName(req.Cycle)
	if err != nil {
		return p, errf(http.StatusBadRequest, "%v", err)
	}
	if req.Scheme == "" {
		return p, errf(http.StatusBadRequest, "missing scheme (GET /v1/schemes lists them)")
	}
	scheme, err := sim.SchemeByName(req.Scheme)
	if err != nil {
		return p, errf(http.StatusBadRequest, "%v", err)
	}
	if math.IsNaN(req.DurationS) || math.IsInf(req.DurationS, 0) || req.DurationS < 0 {
		return p, errf(http.StatusBadRequest, "duration_s %g is not a non-negative finite number", req.DurationS)
	}
	if herr := s.normalizeShared(&req.TickS, &req.Seed, &req.SensorNoiseC, &req.Modules, &req.HorizonTicks); herr != nil {
		return p, herr
	}
	p = runParams{
		cycle:      cycle,
		scheme:     scheme,
		durationS:  effectiveDuration(cycle, req.DurationS),
		tickS:      req.TickS,
		noiseC:     *req.SensorNoiseC,
		seed:       *req.Seed,
		modules:    req.Modules,
		horizon:    req.HorizonTicks,
		battery:    req.Battery,
		detRuntime: req.DeterministicRuntime == nil || *req.DeterministicRuntime,
		keepTicks:  req.Ticks && !req.Stream,
	}
	// The trace generator needs at least two 0.5 s samples and the run
	// at least one whole control period; shorter spans would fail deep
	// in the engine as a 500 instead of the 400 they are.
	if p.durationS < 1 || p.durationS < p.tickS {
		return p, errf(http.StatusBadRequest, "duration_s %g is shorter than one control period (min 1 s and ≥ tick_s)", p.durationS)
	}
	if n := ticksFor(p.durationS, p.tickS); n > float64(s.cfg.MaxTicksPerJob) {
		return p, errf(http.StatusBadRequest, "run spans %.0f control periods, over the server's %d limit — raise tick_s or lower duration_s", n, s.cfg.MaxTicksPerJob)
	}
	return p, nil
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
