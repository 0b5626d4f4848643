// Package scenario turns the repo's five hand-wired experiment knobs —
// drive cycles, control schemes, ambient/coolant regimes, flow
// maldistribution, fault plans — plus the array size into one
// declarative, versioned Matrix spec. Matrix.Expand compiles the cross
// product into a deterministic, stably-ordered sim.Batch job list:
// cells are sorted by their canonical coordinate string and every
// per-cell seed is derived by hashing that coordinate, so shuffling the
// axis declaration order (or sharding the cell list across workers)
// can never change a single result. This is the front door the ROADMAP
// names for the "as many scenarios as you can imagine" axis, and the
// shard unit the distributed-sweep work will consume.
package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/drive"
	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
)

// SpecVersion is the Matrix JSON schema version this build understands.
const SpecVersion = 1

// seedDomain prefixes every coordinate hash; bumping it is the one
// switch that reseeds every cell of every matrix at once.
const seedDomain = "tegscenario/v1"

// ErrSpec is the sentinel every Matrix validation failure wraps, so
// transports (CLI, HTTP) can classify a bad spec without string
// matching.
var ErrSpec = errors.New("scenario: invalid matrix spec")

// Axis size caps. They bound the cost of Normalize itself (range
// expansion, duplicate detection) — the full cross product is bounded
// separately by each transport (serve's MaxMatrixCells, the CLI's
// willingness to wait).
const (
	maxCycleAxis   = 64
	maxSchemeAxis  = 64
	maxAmbientAxis = 256
	maxFlowAxis    = 32
	maxFaultAxis   = 64
	maxSizeAxis    = 32
	maxArraySize   = 5000
	maxFlowPaths   = 64
	maxTimedEvents = 1024
)

// Matrix is the declarative scenario spec: six orthogonal axes plus the
// shared run parameters. The zero value of every optional field means
// "the paper's setting" — an empty axis collapses to the single default
// point, so the smallest useful spec is just a cycle list.
type Matrix struct {
	// Version is the spec schema version; 0 means SpecVersion.
	Version int `json:"version,omitempty"`
	// Name labels the matrix in reports and listings.
	Name string `json:"name,omitempty"`
	// Seed is the base seed every per-cell seed is derived from
	// (0 → 7, the experiments' default).
	Seed int64 `json:"seed,omitempty"`
	// TickS is the control period in seconds (0 → 0.5).
	TickS float64 `json:"tick_s,omitempty"`
	// SensorNoiseC is the controller-facing temperature sensing noise
	// σ in °C; nil → 0.1. A pointer so an explicit 0 survives JSON.
	SensorNoiseC *float64 `json:"sensor_noise_c,omitempty"`
	// HorizonTicks is DNOR's prediction horizon (0 → 4).
	HorizonTicks int `json:"horizon_ticks,omitempty"`
	// MaxDurationS caps every cycle's simulated span; 0 runs each
	// cycle to its full length.
	MaxDurationS float64 `json:"max_duration_s,omitempty"`
	// ConverterInputV is the charger's usable input band [min, max] in
	// volts, which bounds the schemes' group-count window; nil → the
	// LTM4607's [4.5, 36]. Like tick_s no cell coordinate carries it, so
	// matrices that differ only in the band share every cell's seeds.
	ConverterInputV *[2]float64 `json:"converter_input_v,omitempty"`

	// Cycles is the workload axis (required, ≥ 1 entry).
	Cycles []CycleSpec `json:"cycles"`
	// Schemes selects controllers by registry name; empty → all. An
	// entry may name a DNOR variant, "DNOR:horizon=8,predictor=oracle,
	// margin_j=0.5", whose keys override the matrix's horizon_ticks, the
	// MLR predictor and the paper's zero switch margin for that entry.
	Schemes []string `json:"schemes,omitempty"`
	// Ambients is the environment axis; empty → one 25 °C point.
	Ambients []AmbientSpec `json:"ambients,omitempty"`
	// Flows is the radiator flow-maldistribution axis; empty → one
	// even single-path point.
	Flows []FlowSpec `json:"flows,omitempty"`
	// Faults is the fault-plan axis; empty → one fault-free point.
	Faults []FaultSpec `json:"faults,omitempty"`
	// ArraySizes is the module-count axis; empty → [100].
	ArraySizes []int `json:"array_sizes,omitempty"`
}

// CycleSweep is the cycle × scheme grid behind the Table I comparison
// across standard drive cycles: the named registry cycles (every
// registered one when none are named) under the selected schemes (all
// when none are), each capped at maxDurationS. A cap at or past every
// selected cycle's full length is dropped, so it shares a spec — and a
// cache key — with no cap. Every other field keeps the paper's default.
func CycleSweep(cycles, schemes []string, maxDurationS float64) Matrix {
	if len(cycles) == 0 {
		for _, c := range drive.Cycles() {
			cycles = append(cycles, c.Name)
		}
	}
	m := Matrix{
		MaxDurationS: maxDurationS,
		Cycles:       make([]CycleSpec, len(cycles)),
		Schemes:      schemes,
	}
	longest := 0.0
	for i, name := range cycles {
		m.Cycles[i] = CycleSpec{Name: name}
		if c, err := drive.CycleByName(name); err == nil {
			longest = math.Max(longest, c.DurationS)
		}
	}
	if m.MaxDurationS >= longest {
		m.MaxDurationS = 0
	}
	return m
}

// CycleSpec is one workload: exactly one of Name (standard-cycle
// registry), CSV (an inline trace.ReadCSV speed log, so a spec stays
// hermetic over HTTP) or Synth (a stochastic generator family member).
type CycleSpec struct {
	Name  string     `json:"name,omitempty"`
	CSV   string     `json:"csv,omitempty"`
	Synth *SynthSpec `json:"synth,omitempty"`
	// Label overrides the derived display label (labels must stay
	// unique across the axis).
	Label string `json:"label,omitempty"`
}

// SynthSpec parameterises one member of the drive.Synthesize family.
// Zero values take the paper's defaults (800 s urban, dt 0.5 s, seed
// 42, warm start); note this means seed 0 itself is not expressible.
type SynthSpec struct {
	Profile    string  `json:"profile,omitempty"`
	DurationS  float64 `json:"duration_s,omitempty"`
	DTS        float64 `json:"dt_s,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	GradePct   float64 `json:"grade_pct,omitempty"`
	StopFactor float64 `json:"stop_factor,omitempty"`
	SpeedScale float64 `json:"speed_scale,omitempty"`
	ColdStart  bool    `json:"cold_start,omitempty"`
}

// SynthCycle is the cycle-axis entry for the stochastic trace cfg
// synthesizes. The ambient is not part of it: a matrix takes that from
// its ambient axis. A zero cfg.Seed normalizes to the default seed.
func SynthCycle(cfg drive.SynthConfig) CycleSpec {
	return CycleSpec{Synth: &SynthSpec{
		Profile:    cfg.Cycle.String(),
		DurationS:  cfg.Duration,
		DTS:        cfg.DT,
		Seed:       cfg.Seed,
		GradePct:   cfg.GradePct,
		StopFactor: cfg.StopFactor,
		SpeedScale: cfg.SpeedScale,
		ColdStart:  !cfg.WarmStart,
	}}
}

// AmbientSpec is one point (AmbientC) or an inclusive range
// (FromC..ToC in StepC strides — range mode iff StepC ≠ 0) of ambient
// air temperatures, each paired with a coolant-inlet offset applied on
// top of the generated coolant trace (clamped at ambient, since a
// radiator cannot be fed coolant colder than its air).
type AmbientSpec struct {
	AmbientC       float64 `json:"ambient_c,omitempty"`
	FromC          float64 `json:"from_c,omitempty"`
	ToC            float64 `json:"to_c,omitempty"`
	StepC          float64 `json:"step_c,omitempty"`
	CoolantOffsetC float64 `json:"coolant_offset_c,omitempty"`
}

// FlowSpec is one thermal.Bank flow-maldistribution level: Paths
// parallel radiator paths (0 → 1) under parabolic header
// maldistribution m ∈ [0, 1). A multi-path cell runs one job per path
// and reports the summed energies: the Ext-G bank study's axis.
type FlowSpec struct {
	Paths           int     `json:"paths,omitempty"`
	Maldistribution float64 `json:"maldistribution,omitempty"`
}

// FaultSpec is one fault workload: a timed event list, a seeded random
// storm, or (both empty) no faults.
type FaultSpec struct {
	// Name overrides the derived label ("none", "timed:N", "storm:N").
	Name   string      `json:"name,omitempty"`
	Events []EventSpec `json:"events,omitempty"`
	Storm  *StormSpec  `json:"storm,omitempty"`
}

// EventSpec is one timed health transition.
type EventSpec struct {
	TimeS  float64 `json:"time_s"`
	Module int     `json:"module"`
	// To is "open", "short" or "healthy".
	To string `json:"to"`
}

// StormSpec scales faults.RandomPlan into the matrix: exactly one of
// Count (absolute failures) or Fraction (of the cell's module count,
// rounded, at least 1) — Fraction is what lets one storm spec span an
// array-size axis. The storm's seed derives from the cell coordinate
// less its scheme, so every grid point gets an independent but
// reproducible schedule that all its schemes share; SeedOffset
// distinguishes two otherwise-identical storms.
type StormSpec struct {
	Count      int     `json:"count,omitempty"`
	Fraction   float64 `json:"fraction,omitempty"`
	SeedOffset int64   `json:"seed_offset,omitempty"`
}

// hexf encodes a float for coordinate strings: strconv's shortest hex
// form is exact (two floats share an encoding iff they are the same
// bits), which is what makes coordinate hashing collision-free across
// cells that differ only in, say, 0.1 of ambient.
func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func specErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSpec, fmt.Sprintf(format, args...))
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func checkFinite(name string, v float64) error {
	if !finite(v) {
		return specErrf("%s %g is not finite", name, v)
	}
	return nil
}

// Normalize validates the spec and returns a canonical deep copy:
// version stamped, defaults filled, empty axes collapsed to their
// single default point, ambient ranges expanded to points, scheme and
// cycle names canonicalized through their registries, and every axis
// checked for duplicate entries (two identical entries would silently
// halve the matrix after coordinate-sorted dedup, so they are an error
// instead). Normalize is idempotent: normalizing a normalized matrix
// is the identity.
func (m *Matrix) Normalize() (*Matrix, error) {
	if m == nil {
		return nil, specErrf("nil matrix")
	}
	n := &Matrix{
		Version:      m.Version,
		Name:         m.Name,
		Seed:         m.Seed,
		TickS:        m.TickS,
		HorizonTicks: m.HorizonTicks,
		MaxDurationS: m.MaxDurationS,
	}
	switch n.Version {
	case 0:
		n.Version = SpecVersion
	case SpecVersion:
	default:
		return nil, specErrf("unsupported spec version %d (this build understands %d)", n.Version, SpecVersion)
	}
	if n.Seed == 0 {
		n.Seed = 7
	}
	if n.TickS == 0 {
		n.TickS = 0.5
	}
	if err := checkFinite("tick_s", n.TickS); err != nil {
		return nil, err
	}
	if n.TickS <= 0 || n.TickS > 3600 {
		return nil, specErrf("tick_s %g outside (0, 3600]", n.TickS)
	}
	noise := 0.1
	if m.SensorNoiseC != nil {
		noise = *m.SensorNoiseC
	}
	if err := checkFinite("sensor_noise_c", noise); err != nil {
		return nil, err
	}
	if noise < 0 || noise > sim.MaxSensorNoiseC {
		return nil, specErrf("sensor_noise_c %g outside [0, %g]", noise, sim.MaxSensorNoiseC)
	}
	n.SensorNoiseC = &noise
	if n.HorizonTicks == 0 {
		n.HorizonTicks = 4
	}
	if n.HorizonTicks < 1 || n.HorizonTicks > sim.MaxHorizonTicks {
		return nil, specErrf("horizon_ticks %d outside [1, %d]", n.HorizonTicks, sim.MaxHorizonTicks)
	}
	if err := checkFinite("max_duration_s", n.MaxDurationS); err != nil {
		return nil, err
	}
	if n.MaxDurationS < 0 {
		return nil, specErrf("negative max_duration_s %g", n.MaxDurationS)
	}
	if n.MaxDurationS > 0 && n.MaxDurationS < n.TickS {
		return nil, specErrf("max_duration_s %g shorter than one tick (%g s)", n.MaxDurationS, n.TickS)
	}
	// The LTM4607's own band is the default and normalizes away.
	conv := converter.LTM4607()
	if band := m.ConverterInputV; band != nil && *band != [2]float64{conv.MinInput, conv.MaxInput} {
		conv.MinInput, conv.MaxInput = band[0], band[1]
		if err := conv.Validate(); err != nil {
			return nil, fmt.Errorf("%w: converter_input_v: %v", ErrSpec, err)
		}
		n.ConverterInputV = &[2]float64{band[0], band[1]}
	}

	var err error
	if n.Cycles, err = normalizeCycles(m.Cycles); err != nil {
		return nil, err
	}
	// The trace generator samples a cycle on its own grid (a synth
	// cycle's dt_s, drive's default period for a named or CSV one) and
	// cannot generate a span shorter than one sample period.
	if n.MaxDurationS > 0 {
		for _, c := range n.Cycles {
			dt := drive.DefaultSynthConfig().DT
			if c.Synth != nil {
				dt = c.Synth.DTS
			}
			if n.MaxDurationS < dt {
				return nil, specErrf("max_duration_s %g shorter than cycle %s's %g s trace sample period", n.MaxDurationS, c.Label, dt)
			}
		}
	}
	if n.Schemes, err = normalizeSchemes(m.Schemes, n.HorizonTicks); err != nil {
		return nil, err
	}
	if n.Ambients, err = normalizeAmbients(m.Ambients); err != nil {
		return nil, err
	}
	if n.Flows, err = normalizeFlows(m.Flows); err != nil {
		return nil, err
	}
	minModules := maxArraySize
	if n.ArraySizes, err = normalizeSizes(m.ArraySizes); err != nil {
		return nil, err
	}
	for _, s := range n.ArraySizes {
		if s < minModules {
			minModules = s
		}
	}
	if n.Faults, err = normalizeFaults(m.Faults, minModules); err != nil {
		return nil, err
	}
	return n, nil
}

func normalizeCycles(in []CycleSpec) ([]CycleSpec, error) {
	if len(in) == 0 {
		return nil, specErrf("cycles axis is empty (at least one cycle is required)")
	}
	if len(in) > maxCycleAxis {
		return nil, specErrf("%d cycles exceed the %d-entry axis cap", len(in), maxCycleAxis)
	}
	out := make([]CycleSpec, 0, len(in))
	ids, labels := map[string]bool{}, map[string]bool{}
	for i, c := range in {
		set := 0
		for _, on := range []bool{c.Name != "", c.CSV != "", c.Synth != nil} {
			if on {
				set++
			}
		}
		if set != 1 {
			return nil, specErrf("cycle %d must set exactly one of name, csv, synth", i)
		}
		nc := CycleSpec{Label: c.Label}
		switch {
		case c.Name != "":
			cy, err := drive.CycleByName(c.Name)
			if err != nil {
				return nil, fmt.Errorf("%w: cycle %d: %v", ErrSpec, i, err)
			}
			nc.Name = cy.Name
			if nc.Label == "" {
				nc.Label = cy.Name
			}
		case c.CSV != "":
			sched, err := drive.ReadSchedule(strings.NewReader(c.CSV), "")
			if err != nil {
				return nil, fmt.Errorf("%w: cycle %d csv: %v", ErrSpec, i, err)
			}
			if d, dt := sched.Duration(), drive.DefaultSynthConfig().DT; d < dt {
				return nil, specErrf("cycle %d csv spans %g s, shorter than the %g s trace sample period", i, d, dt)
			}
			nc.CSV = c.CSV
			if nc.Label == "" {
				sum := sha256.Sum256([]byte(c.CSV))
				nc.Label = "csv:" + hex.EncodeToString(sum[:4])
			}
		default:
			s, err := normalizeSynth(*c.Synth)
			if err != nil {
				return nil, fmt.Errorf("%w: cycle %d: %v", ErrSpec, i, err)
			}
			nc.Synth = &s
			if nc.Label == "" {
				nc.Label = s.defaultLabel()
			}
		}
		id := nc.identity()
		if ids[id] {
			return nil, specErrf("cycle %d duplicates an earlier cycle (%s)", i, nc.Label)
		}
		if labels[nc.Label] {
			return nil, specErrf("cycle %d reuses label %q", i, nc.Label)
		}
		ids[id], labels[nc.Label] = true, true
		out = append(out, nc)
	}
	return out, nil
}

func normalizeSynth(s SynthSpec) (SynthSpec, error) {
	if s.Profile == "" {
		s.Profile = "urban"
	}
	p, err := drive.ProfileByName(s.Profile)
	if err != nil {
		return s, err
	}
	s.Profile = p.String()
	if s.DurationS == 0 {
		s.DurationS = drive.DefaultSynthConfig().Duration
	}
	if s.DTS == 0 {
		s.DTS = drive.DefaultSynthConfig().DT
	}
	if s.Seed == 0 {
		s.Seed = drive.DefaultSynthConfig().Seed
	}
	if s.StopFactor == 0 {
		s.StopFactor = 1
	}
	if s.SpeedScale == 0 {
		s.SpeedScale = 1
	}
	// drive owns the family-parameter bounds; validate with a probe
	// config at a legal ambient (the ambient axis supplies the real one
	// per cell, already bounds-checked by normalizeAmbients).
	cfg, err := s.synthConfig(25)
	if err != nil {
		return s, err
	}
	if err := cfg.Validate(); err != nil {
		return s, err
	}
	return s, nil
}

// synthConfig maps the spec onto drive.SynthConfig at a given ambient.
func (s SynthSpec) synthConfig(ambientC float64) (drive.SynthConfig, error) {
	p, err := drive.ProfileByName(s.Profile)
	if err != nil {
		return drive.SynthConfig{}, err
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Cycle = p
	cfg.Duration = s.DurationS
	cfg.DT = s.DTS
	cfg.Seed = s.Seed
	cfg.AmbientC = ambientC
	cfg.GradePct = s.GradePct
	cfg.StopFactor = s.StopFactor
	cfg.SpeedScale = s.SpeedScale
	cfg.WarmStart = !s.ColdStart
	return cfg, nil
}

// defaultLabel derives a compact display label: profile and seed
// always, non-default knobs as suffixes.
func (s SynthSpec) defaultLabel() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "synth:%s:s%d", s.Profile, s.Seed)
	def := drive.DefaultSynthConfig()
	if s.DurationS != def.Duration {
		fmt.Fprintf(&sb, ":d%g", s.DurationS)
	}
	if s.GradePct != 0 {
		fmt.Fprintf(&sb, ":g%g", s.GradePct)
	}
	if s.StopFactor != 1 {
		fmt.Fprintf(&sb, ":f%g", s.StopFactor)
	}
	if s.SpeedScale != 1 {
		fmt.Fprintf(&sb, ":v%g", s.SpeedScale)
	}
	if s.ColdStart {
		sb.WriteString(":cold")
	}
	return sb.String()
}

// identity is the cycle's canonical coordinate component: every
// parameter that changes the generated trace, exactly encoded.
func (c CycleSpec) identity() string {
	switch {
	case c.Name != "":
		return "name=" + c.Name
	case c.CSV != "":
		sum := sha256.Sum256([]byte(c.CSV))
		return "csv=" + hex.EncodeToString(sum[:])
	case c.Synth != nil:
		s := c.Synth
		return fmt.Sprintf("synth=p:%s,s:%d,d:%s,dt:%s,g:%s,f:%s,v:%s,cold:%t",
			s.Profile, s.Seed, hexf(s.DurationS), hexf(s.DTS),
			hexf(s.GradePct), hexf(s.StopFactor), hexf(s.SpeedScale), s.ColdStart)
	default:
		return "invalid"
	}
}

func normalizeSchemes(in []string, horizon int) ([]string, error) {
	if len(in) == 0 {
		in = sim.SchemeNames()
	}
	if len(in) > maxSchemeAxis {
		return nil, specErrf("%d schemes exceed the %d-entry axis cap", len(in), maxSchemeAxis)
	}
	out := make([]string, 0, len(in))
	seen := map[string]bool{}
	for i, entry := range in {
		v, err := parseScheme(entry, horizon)
		if err != nil {
			return nil, fmt.Errorf("%w: scheme %d: %v", ErrSpec, i, err)
		}
		name := v.String()
		if seen[name] {
			return nil, specErrf("scheme %d duplicates %q", i, name)
		}
		seen[name] = true
		out = append(out, name)
	}
	return out, nil
}

// schemeVariant is one parsed Schemes entry: a registry scheme and the
// DNOR knobs it overrides, each left at its zero value where the entry
// keeps the default.
type schemeVariant struct {
	sch       sim.Scheme
	horizon   int     // 0 keeps the matrix's horizon_ticks
	predictor string  // "" keeps MLR
	marginJ   float64 // extra switch margin in joules
}

// parseScheme parses a Schemes entry: a registry name, optionally
// followed by ":key=value,…" with the keys horizon (ticks), predictor
// (a predict.Names entry) and margin_j (joules). Only a predictive
// scheme takes keys. A key set to its default (the matrix's horizon,
// mlr, 0) is dropped, so a variant equal to the default is the bare
// scheme.
func parseScheme(entry string, horizon int) (schemeVariant, error) {
	name, knobs, hasKnobs := strings.Cut(entry, ":")
	sch, err := sim.SchemeByName(name)
	v := schemeVariant{sch: sch}
	if err != nil || !hasKnobs {
		return v, err
	}
	if !sch.Predictive {
		return v, fmt.Errorf("%s takes no horizon, predictor or margin_j key", sch.Name)
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(knobs, ",") {
		key, val, _ := strings.Cut(kv, "=")
		if seen[key] {
			return v, fmt.Errorf("key %q repeated", key)
		}
		seen[key] = true
		switch key {
		case "horizon":
			h, err := strconv.Atoi(val)
			if err != nil || h < 1 || h > sim.MaxHorizonTicks {
				return v, fmt.Errorf("horizon %q is not a tick count in [1, %d]", val, sim.MaxHorizonTicks)
			}
			if h != horizon {
				v.horizon = h
			}
		case "predictor":
			p := strings.ToLower(val)
			if !slices.Contains(predict.Names(), p) {
				return v, fmt.Errorf("unknown predictor %q (valid: %s)", val, strings.Join(predict.Names(), ", "))
			}
			if p != "mlr" {
				v.predictor = p
			}
		case "margin_j":
			m, err := strconv.ParseFloat(val, 64)
			if err != nil || m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
				return v, fmt.Errorf("margin_j %q is not a non-negative finite number", val)
			}
			if m != 0 {
				v.marginJ = m
			}
		default:
			return v, fmt.Errorf("unknown key %q in %q (valid: horizon, predictor, margin_j)", key, kv)
		}
	}
	return v, nil
}

// coord is the entry as a cell coordinate spells it: String, except
// that a predictive scheme always names its effective horizon. One
// controller configuration then has one coordinate, one seed and one
// cache key, whether its horizon came from the entry or from the
// matrix's horizon_ticks. Rendered labels keep the entry (String).
func (v schemeVariant) coord(horizon int) string {
	if v.sch.Predictive && v.horizon == 0 {
		v.horizon = horizon
	}
	return v.String()
}

// String is the canonical entry: the registry name, then the keys that
// differ from the default in a fixed order, numbers in shortest
// round-trip form.
func (v schemeVariant) String() string {
	var knobs []string
	if v.horizon != 0 {
		knobs = append(knobs, "horizon="+strconv.Itoa(v.horizon))
	}
	if v.predictor != "" {
		knobs = append(knobs, "predictor="+v.predictor)
	}
	if v.marginJ != 0 {
		knobs = append(knobs, "margin_j="+strconv.FormatFloat(v.marginJ, 'g', -1, 64))
	}
	if len(knobs) == 0 {
		return v.sch.Name
	}
	return v.sch.Name + ":" + strings.Join(knobs, ",")
}

func normalizeAmbients(in []AmbientSpec) ([]AmbientSpec, error) {
	if len(in) == 0 {
		in = []AmbientSpec{{AmbientC: 25}}
	}
	var out []AmbientSpec
	seen := map[string]bool{}
	add := func(ambient, offset float64) error {
		if ambient < -40 || ambient > 55 {
			return specErrf("ambient %g°C outside [-40, 55]", ambient)
		}
		if offset < -50 || offset > 100 {
			return specErrf("coolant_offset_c %g outside [-50, 100]", offset)
		}
		key := hexf(ambient) + "/" + hexf(offset)
		if seen[key] {
			return specErrf("duplicate ambient point (%g°C, coolant offset %g)", ambient, offset)
		}
		seen[key] = true
		out = append(out, AmbientSpec{AmbientC: ambient, CoolantOffsetC: offset})
		return nil
	}
	for i, a := range in {
		for _, f := range []struct {
			name string
			v    float64
		}{{"ambient_c", a.AmbientC}, {"from_c", a.FromC}, {"to_c", a.ToC}, {"step_c", a.StepC}, {"coolant_offset_c", a.CoolantOffsetC}} {
			if !finite(f.v) {
				return nil, specErrf("ambient %d %s %g is not finite", i, f.name, f.v)
			}
		}
		if a.StepC == 0 {
			if a.FromC != 0 || a.ToC != 0 {
				return nil, specErrf("ambient %d sets from_c/to_c without step_c", i)
			}
			if err := add(a.AmbientC, a.CoolantOffsetC); err != nil {
				return nil, err
			}
			continue
		}
		if a.AmbientC != 0 {
			return nil, specErrf("ambient %d sets both ambient_c and a range", i)
		}
		if a.StepC < 0 || a.ToC < a.FromC {
			return nil, specErrf("ambient %d range [%g, %g] step %g is not ascending", i, a.FromC, a.ToC, a.StepC)
		}
		// Bound the count as a float: a tiny step overflows int, and
		// the conversion would then drop the whole range silently.
		points := math.Floor((a.ToC-a.FromC)/a.StepC) + 1
		if points > maxAmbientAxis {
			return nil, specErrf("ambient %d range expands to %g points (cap %d)", i, points, maxAmbientAxis)
		}
		for k := 0; k < int(points); k++ {
			if err := add(a.FromC+float64(k)*a.StepC, a.CoolantOffsetC); err != nil {
				return nil, err
			}
		}
	}
	if len(out) > maxAmbientAxis {
		return nil, specErrf("%d ambient points exceed the %d-point axis cap", len(out), maxAmbientAxis)
	}
	return out, nil
}

func normalizeFlows(in []FlowSpec) ([]FlowSpec, error) {
	if len(in) == 0 {
		in = []FlowSpec{{Paths: 1}}
	}
	if len(in) > maxFlowAxis {
		return nil, specErrf("%d flow levels exceed the %d-entry axis cap", len(in), maxFlowAxis)
	}
	out := make([]FlowSpec, 0, len(in))
	seen := map[string]bool{}
	for i, f := range in {
		if f.Paths == 0 {
			f.Paths = 1
		}
		if f.Paths < 1 || f.Paths > maxFlowPaths {
			return nil, specErrf("flow %d paths %d outside [1, %d]", i, f.Paths, maxFlowPaths)
		}
		if !finite(f.Maldistribution) {
			return nil, specErrf("flow %d maldistribution %g is not finite", i, f.Maldistribution)
		}
		if f.Maldistribution < 0 || f.Maldistribution >= 1 {
			return nil, specErrf("flow %d maldistribution %g outside [0, 1)", i, f.Maldistribution)
		}
		if f.Paths == 1 && f.Maldistribution != 0 {
			return nil, specErrf("flow %d maldistributes a single path", i)
		}
		key := strconv.Itoa(f.Paths) + "/" + hexf(f.Maldistribution)
		if seen[key] {
			return nil, specErrf("flow %d duplicates (%d paths, m=%g)", i, f.Paths, f.Maldistribution)
		}
		seen[key] = true
		out = append(out, f)
	}
	return out, nil
}

func normalizeSizes(in []int) ([]int, error) {
	if len(in) == 0 {
		in = []int{100}
	}
	if len(in) > maxSizeAxis {
		return nil, specErrf("%d array sizes exceed the %d-entry axis cap", len(in), maxSizeAxis)
	}
	out := make([]int, 0, len(in))
	seen := map[int]bool{}
	for i, s := range in {
		if s < 1 || s > maxArraySize {
			return nil, specErrf("array size %d (entry %d) outside [1, %d]", s, i, maxArraySize)
		}
		if seen[s] {
			return nil, specErrf("array size %d duplicated", s)
		}
		seen[s] = true
		out = append(out, s)
	}
	return out, nil
}

// healthByName maps the JSON fault-state spellings onto array's enum.
func healthByName(name string) (array.ModuleHealth, error) {
	switch strings.ToLower(name) {
	case "open":
		return array.FailedOpen, nil
	case "short":
		return array.FailedShort, nil
	case "healthy":
		return array.Healthy, nil
	default:
		return 0, fmt.Errorf("unknown fault state %q (valid: open, short, healthy)", name)
	}
}

func normalizeFaults(in []FaultSpec, minModules int) ([]FaultSpec, error) {
	if len(in) == 0 {
		in = []FaultSpec{{}}
	}
	if len(in) > maxFaultAxis {
		return nil, specErrf("%d fault specs exceed the %d-entry axis cap", len(in), maxFaultAxis)
	}
	out := make([]FaultSpec, 0, len(in))
	ids, labels := map[string]bool{}, map[string]bool{}
	for i, f := range in {
		if len(f.Events) > 0 && f.Storm != nil {
			return nil, specErrf("fault %d sets both events and storm", i)
		}
		nf := FaultSpec{Name: f.Name}
		switch {
		case len(f.Events) > 0:
			if len(f.Events) > maxTimedEvents {
				return nil, specErrf("fault %d has %d events (cap %d)", i, len(f.Events), maxTimedEvents)
			}
			nf.Events = make([]EventSpec, len(f.Events))
			for j, e := range f.Events {
				if !finite(e.TimeS) {
					return nil, specErrf("fault %d event %d time_s %g is not finite", i, j, e.TimeS)
				}
				if e.TimeS < 0 {
					return nil, specErrf("fault %d event %d time %g is negative", i, j, e.TimeS)
				}
				if e.Module < 0 || e.Module >= minModules {
					return nil, specErrf("fault %d event %d targets module %d, but the smallest array in the matrix has %d modules", i, j, e.Module, minModules)
				}
				if _, err := healthByName(e.To); err != nil {
					return nil, specErrf("fault %d event %d: %v", i, j, err)
				}
				nf.Events[j] = EventSpec{TimeS: e.TimeS, Module: e.Module, To: strings.ToLower(e.To)}
			}
			// Canonical event order: identity (and therefore seeds) must
			// not depend on how the author happened to list the events.
			sort.SliceStable(nf.Events, func(a, b int) bool {
				x, y := nf.Events[a], nf.Events[b]
				if x.TimeS != y.TimeS {
					return x.TimeS < y.TimeS
				}
				if x.Module != y.Module {
					return x.Module < y.Module
				}
				return x.To < y.To
			})
			if nf.Name == "" {
				nf.Name = fmt.Sprintf("timed:%d", len(nf.Events))
			}
		case f.Storm != nil:
			st := *f.Storm
			if !finite(st.Fraction) {
				return nil, specErrf("fault %d storm fraction %g is not finite", i, st.Fraction)
			}
			if (st.Count > 0) == (st.Fraction > 0) {
				return nil, specErrf("fault %d storm must set exactly one of count, fraction", i)
			}
			if st.Count < 0 || st.Count > minModules {
				return nil, specErrf("fault %d storm count %d outside [1, %d] (smallest array)", i, st.Count, minModules)
			}
			if st.Fraction < 0 || st.Fraction > 1 {
				return nil, specErrf("fault %d storm fraction %g outside (0, 1]", i, st.Fraction)
			}
			nf.Storm = &st
			if nf.Name == "" {
				if st.Count > 0 {
					nf.Name = fmt.Sprintf("storm:%d", st.Count)
				} else {
					nf.Name = fmt.Sprintf("storm:%g%%", 100*st.Fraction)
				}
				if st.SeedOffset != 0 {
					nf.Name += fmt.Sprintf("+%d", st.SeedOffset)
				}
			}
		default:
			if nf.Name == "" {
				nf.Name = "none"
			}
		}
		id := nf.identity()
		if ids[id] {
			return nil, specErrf("fault %d duplicates an earlier fault (%s)", i, nf.Name)
		}
		if labels[nf.Name] {
			return nil, specErrf("fault %d reuses label %q", i, nf.Name)
		}
		ids[id], labels[nf.Name] = true, true
		out = append(out, nf)
	}
	return out, nil
}

// identity is the fault's canonical coordinate component.
func (f FaultSpec) identity() string {
	switch {
	case len(f.Events) > 0:
		parts := make([]string, len(f.Events))
		for i, e := range f.Events {
			parts[i] = hexf(e.TimeS) + "@" + strconv.Itoa(e.Module) + ">" + e.To
		}
		return "timed[" + strings.Join(parts, ",") + "]"
	case f.Storm != nil:
		return fmt.Sprintf("storm[c:%d,f:%s,o:%d]", f.Storm.Count, hexf(f.Storm.Fraction), f.Storm.SeedOffset)
	default:
		return "none"
	}
}

// seedFor derives a deterministic non-negative seed from the base seed
// and a coordinate-like string by hashing — the mechanism that detaches
// every cell's randomness from expansion order.
func seedFor(base int64, coord string) int64 {
	h := sha256.New()
	fmt.Fprintf(h, "%s|seed=%d|%s", seedDomain, base, coord)
	var sum [sha256.Size]byte
	return int64(binary.BigEndian.Uint64(h.Sum(sum[:0])[:8]) &^ (uint64(1) << 63))
}
