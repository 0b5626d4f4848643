// Package drive synthesises the vehicle-side boundary conditions the
// paper measured on a Hyundai Porter II during an 800 s drive: coolant
// inlet temperature, coolant flow rate and ambient conditions at the
// radiator, sampled on the control period.
//
// The paper's trace is not public, so this package substitutes the
// physics-based generator described here: a seeded urban
// stop-and-go speed profile drives an engine-load model, whose waste
// heat feeds a lumped coolant thermal mass regulated by a modulating
// thermostat; pump flow follows engine speed and ram air follows vehicle
// speed. The result reproduces the statistical features the algorithms
// care about — slow ramps, thermostat-induced oscillation, flow/load
// coupling and occasional sharp transients — in a fully repeatable way.
package drive

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// Channel names of the generated trace.
const (
	ChanSpeed       = "speed_kph"
	ChanCoolantInC  = "coolant_in_c"
	ChanCoolantFlow = "coolant_flow_kgs" // per radiator path
	ChanAmbientC    = "ambient_c"
	ChanAirFlow     = "air_flow_kgs" // per radiator path
)

// Profile selects the character of the synthetic speed trace.
type Profile int

const (
	// Urban is dense stop-and-go traffic (25–70 km/h targets, frequent
	// stops) — the paper's measurement condition.
	Urban Profile = iota
	// Highway is sustained cruising (75–110 km/h) with rare slowdowns.
	Highway
	// Mixed alternates urban and highway legs on a ~3 minute cadence.
	Mixed
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case Urban:
		return "urban"
	case Highway:
		return "highway"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// profileRegistry lists the stochastic profiles in declaration order —
// the same one-list contract the cycle registry has: ProfileNames feeds
// both ProfileByName's error and every CLI usage text, so neither can
// drift from the set of profiles that actually generate.
var profileRegistry = []Profile{Urban, Highway, Mixed}

// ProfileNames returns the stochastic profile names in registry order.
func ProfileNames() []string {
	names := make([]string, len(profileRegistry))
	for i, p := range profileRegistry {
		names[i] = p.String()
	}
	return names
}

// ProfileByName looks a stochastic profile up case-insensitively. An
// unknown name's error lists every valid profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profileRegistry {
		if strings.EqualFold(p.String(), name) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("drive: unknown profile %q (valid profiles: %s)", name, strings.Join(ProfileNames(), ", "))
}

// SynthConfig parameterises the generator.
type SynthConfig struct {
	// Duration of the trace in seconds (the paper uses 800 s).
	Duration float64
	// Cycle selects the speed-profile character; the zero value is the
	// paper's urban condition.
	Cycle Profile
	// DT is the sample period in seconds (0.5 s in the paper's setup).
	DT float64
	// Seed makes the trace repeatable.
	Seed int64
	// AmbientC is the ambient air temperature.
	AmbientC float64
	// WarmStart begins with the engine at operating temperature (the
	// paper's measurement starts on a warm engine).
	WarmStart bool

	// Family parameters: the knobs that turn the one urban trace into a
	// parameterised workload family (the scenario-matrix cycle axis).
	// Zero values reproduce the paper's condition bit-for-bit.

	// GradePct is a constant road grade in percent (positive uphill,
	// negative downhill); it adds m·g·(grade/100)·v to the engine load.
	// Bounded to ±15% by Validate.
	GradePct float64
	// StopFactor scales the per-phase probability of braking to a stop
	// (0 → 1, the published profiles). 2 doubles stop-and-go density;
	// 0.5 halves it. Bounded to (0, 10] by Validate.
	StopFactor float64
	// SpeedScale scales every target speed the profile draws (0 → 1).
	// Bounded to [0.25, 3] by Validate.
	SpeedScale float64

	// Vehicle/engine parameters; zero values take defaults.
	MassKg          float64 // vehicle mass
	IdleHeatW       float64 // coolant heat load at idle
	HeatPerWattLoad float64 // coolant heat per watt of brake power
	ThermalMassJK   float64 // engine+coolant lumped thermal mass
	ThermostatOpenC float64 // thermostat starts opening
	ThermostatFullC float64 // thermostat fully open
	RadiatorPaths   int     // parallel 1-D paths sharing the flow
}

// DefaultSynthConfig returns the configuration used by the experiments:
// an 800 s, 0.5 s-sampled urban drive of a 3.0 L diesel pickup at 25 °C
// ambient, warm-started.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{
		Duration:  800,
		DT:        0.5,
		Seed:      42,
		AmbientC:  25,
		WarmStart: true,
	}
}

// withDefaults fills zero-valued tunables.
func (c SynthConfig) withDefaults() SynthConfig {
	if c.StopFactor == 0 {
		c.StopFactor = 1
	}
	if c.SpeedScale == 0 {
		c.SpeedScale = 1
	}
	if c.MassKg == 0 {
		c.MassKg = 1900 // Porter II kerb + load
	}
	if c.IdleHeatW == 0 {
		c.IdleHeatW = 4000
	}
	if c.HeatPerWattLoad == 0 {
		c.HeatPerWattLoad = 0.85 // diesel: coolant heat ≈ 0.85 × brake power
	}
	if c.ThermalMassJK == 0 {
		c.ThermalMassJK = 90e3
	}
	if c.ThermostatOpenC == 0 {
		c.ThermostatOpenC = 82
	}
	if c.ThermostatFullC == 0 {
		c.ThermostatFullC = 92
	}
	if c.RadiatorPaths == 0 {
		c.RadiatorPaths = 6
	}
	return c
}

// ErrSynthConfig is the sentinel every SynthConfig.Validate failure
// wraps, so callers expanding large scenario matrices can classify a
// degenerate cycle spec (errors.Is) without string-matching the
// detailed message.
var ErrSynthConfig = errors.New("drive: invalid synth config")

// Validate rejects non-physical configurations. Every float field is
// checked for NaN/Inf explicitly: a NaN Duration satisfies neither
// `<= 0` nor `> 0`, so without these checks it would slip through the
// sign tests and generate a zero-sample trace instead of failing loudly
// — exactly the degenerate input a machine-built scenario matrix can
// produce.
func (c SynthConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"duration", c.Duration}, {"dt", c.DT}, {"ambient", c.AmbientC},
		{"grade_pct", c.GradePct}, {"stop_factor", c.StopFactor}, {"speed_scale", c.SpeedScale},
		{"mass_kg", c.MassKg}, {"idle_heat_w", c.IdleHeatW}, {"heat_per_watt", c.HeatPerWattLoad},
		{"thermal_mass", c.ThermalMassJK}, {"thermostat_open", c.ThermostatOpenC}, {"thermostat_full", c.ThermostatFullC},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%w: %s %g is not finite", ErrSynthConfig, f.name, f.v)
		}
	}
	if c.Duration <= 0 {
		return fmt.Errorf("%w: non-positive duration %g", ErrSynthConfig, c.Duration)
	}
	if c.DT <= 0 || c.DT > c.Duration {
		return fmt.Errorf("%w: bad sample period %g for duration %g", ErrSynthConfig, c.DT, c.Duration)
	}
	if c.AmbientC < -40 || c.AmbientC > 55 {
		return fmt.Errorf("%w: ambient %g°C outside plausible range", ErrSynthConfig, c.AmbientC)
	}
	if c.GradePct < -15 || c.GradePct > 15 {
		return fmt.Errorf("%w: grade %g%% outside ±15%%", ErrSynthConfig, c.GradePct)
	}
	d := c.withDefaults()
	if d.StopFactor <= 0 || d.StopFactor > 10 {
		return fmt.Errorf("%w: stop factor %g outside (0, 10]", ErrSynthConfig, d.StopFactor)
	}
	if d.SpeedScale < 0.25 || d.SpeedScale > 3 {
		return fmt.Errorf("%w: speed scale %g outside [0.25, 3]", ErrSynthConfig, d.SpeedScale)
	}
	if d.ThermostatFullC <= d.ThermostatOpenC {
		return fmt.Errorf("%w: thermostat window [%g, %g] inverted", ErrSynthConfig, d.ThermostatOpenC, d.ThermostatFullC)
	}
	if d.RadiatorPaths <= 0 {
		return fmt.Errorf("%w: non-positive radiator path count %d", ErrSynthConfig, d.RadiatorPaths)
	}
	return nil
}

// driveState is the internal simulation state of the generator.
type driveState struct {
	speedKPH   float64
	targetKPH  float64
	phaseLeft  float64 // seconds remaining in the current phase
	legClock   float64 // elapsed time, drives Mixed-cycle leg switching
	coolantC   float64
	thermoFrac float64 // low-pass filtered thermostat opening
	thermoOn   bool    // hysteretic wax-element command
	flowLP     float64 // low-pass filtered per-path coolant flow, kg/s
	airLP      float64 // low-pass filtered per-path air flow, kg/s
}

// Synthesize generates the trace.
func Synthesize(cfg SynthConfig) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed))
	return generate(c, func(st *driveState, t float64) {
		stepVehicle(st, &c, rng, c.DT)
	})
}

// generate advances the coolant/hydraulic state machine over a speed
// source and samples the boundary-condition channels every c.DT seconds.
// advanceSpeed updates st.speedKPH for sample time t — either the
// stochastic stop-and-go model (Synthesize) or a prescribed regulatory
// schedule (FromSpeedSchedule); everything downstream of the speed is
// shared.
func generate(c SynthConfig, advanceSpeed func(st *driveState, t float64)) (*trace.Trace, error) {
	tr := trace.New(ChanSpeed, ChanCoolantInC, ChanCoolantFlow, ChanAmbientC, ChanAirFlow)

	st := driveState{
		coolantC: c.AmbientC + 5,
	}
	if c.WarmStart {
		st.coolantC = (c.ThermostatOpenC + c.ThermostatFullC) / 2
		st.thermoFrac = 0.5
	}

	st.flowLP = pathCoolantFlow(&st, &c)
	st.airLP = pathAirFlow(&st, &c)

	// Pump and duct hydraulics low-pass the flows (~3 s): engine speed
	// can step during hard braking but the coolant loop and the air
	// column cannot. For sample periods coarser than the hydraulic time
	// constant the forward-Euler blend must saturate at 1 or the filter
	// diverges (and emits negative flows).
	alpha := lpAlpha(c.DT, 3)

	steps := int(math.Round(c.Duration/c.DT)) + 1
	for k := 0; k < steps; k++ {
		t := float64(k) * c.DT
		advanceSpeed(&st, t)
		stepThermal(&st, &c, c.DT)

		st.flowLP += (pathCoolantFlow(&st, &c) - st.flowLP) * alpha
		st.airLP += (pathAirFlow(&st, &c) - st.airLP) * alpha
		if err := tr.Append(t, st.speedKPH, st.coolantC, st.flowLP, c.AmbientC, st.airLP); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// stepVehicle advances the stop-and-go speed profile: phases of
// acceleration toward a random urban target, cruising with jitter,
// braking and idling at lights.
func stepVehicle(st *driveState, c *SynthConfig, rng *rand.Rand, dt float64) {
	st.phaseLeft -= dt
	st.legClock += dt
	if st.phaseLeft <= 0 {
		// Resolve the active leg for mixed cycles (~3 min cadence).
		active := c.Cycle
		if active == Mixed {
			if int(st.legClock/180)%2 == 0 {
				active = Urban
			} else {
				active = Highway
			}
		}
		// Pick the next phase. SpeedScale multiplies every drawn target
		// (exact at the default 1.0, so the paper's traces are
		// bit-identical); StopFactor scales the braking probability the
		// same way, capped below certainty so cruise phases stay
		// reachable.
		stopP := stopProbability(active) * c.StopFactor
		if stopP > 0.95 {
			stopP = 0.95
		}
		switch {
		case st.speedKPH < 2: // at rest → accelerate to a new target
			if active == Highway {
				st.targetKPH = (75 + rng.Float64()*35) * c.SpeedScale
			} else {
				st.targetKPH = (25 + rng.Float64()*45) * c.SpeedScale // 25–70 km/h urban
			}
			st.phaseLeft = 8 + rng.Float64()*25
		case rng.Float64() < stopP: // brake to a stop
			st.targetKPH = 0
			st.phaseLeft = 6 + rng.Float64()*18
		default: // new cruise target
			if active == Highway {
				st.targetKPH = (70 + rng.Float64()*40) * c.SpeedScale
				st.phaseLeft = 15 + rng.Float64()*40
			} else {
				st.targetKPH = (15 + rng.Float64()*55) * c.SpeedScale
				st.phaseLeft = 6 + rng.Float64()*20
			}
		}
	}
	// First-order approach to the target with bounded accel/decel.
	maxAccel := 2.2 * 3.6 // km/h per second
	maxDecel := 3.5 * 3.6
	diff := st.targetKPH - st.speedKPH
	rate := diff * 0.35
	if rate > maxAccel {
		rate = maxAccel
	}
	if rate < -maxDecel {
		rate = -maxDecel
	}
	st.speedKPH += rate * dt
	if st.speedKPH < 0 {
		st.speedKPH = 0
	}
	// Cruise jitter.
	if st.speedKPH > 5 {
		st.speedKPH += rng.NormFloat64() * 0.3
		if st.speedKPH < 0 {
			st.speedKPH = 0
		}
	}
}

// stopProbability returns the per-phase chance of braking to a stop.
func stopProbability(p Profile) float64 {
	if p == Highway {
		return 0.06
	}
	return 0.35
}

// brakePower returns the tractive power demand in watts for the current
// speed (rolling + aero + a crude acceleration allowance folded into the
// speed-following dynamics).
func brakePower(speedKPH, massKg float64) float64 {
	v := speedKPH / 3.6 // m/s
	const (
		crr  = 0.012 // rolling resistance coefficient
		cdA  = 1.9   // drag area, m² (boxy pickup)
		rhoA = 1.2
		g    = 9.81
	)
	rolling := crr * massKg * g * v
	aero := 0.5 * rhoA * cdA * v * v * v
	return rolling + aero
}

// gradePower returns the climbing power demand in watts for a constant
// road grade in percent (small-angle: sin θ ≈ grade/100). Negative on
// descents — the caller clamps total load at the fuel-cut floor. Exactly
// zero at the default flat road, so the paper's traces are unchanged.
func gradePower(speedKPH, massKg, gradePct float64) float64 {
	return massKg * 9.81 * (gradePct / 100) * (speedKPH / 3.6)
}

// stepThermal advances the coolant lumped thermal state.
func stepThermal(st *driveState, c *SynthConfig, dt float64) {
	load := brakePower(st.speedKPH, c.MassKg) + gradePower(st.speedKPH, c.MassKg, c.GradePct)
	if load < 0 {
		// Downhill overrun: fuel cut, no combustion heat below idle.
		load = 0
	}
	qIn := c.IdleHeatW + c.HeatPerWattLoad*load

	// Hysteretic wax-element thermostat: commands full open above the
	// upper threshold, full closed below the lower one, and holds its
	// command in between. The low-pass models the element's actuation
	// lag. The resulting limit cycle is the coolant-temperature
	// oscillation the paper's trace exhibits.
	if st.coolantC >= c.ThermostatFullC {
		st.thermoOn = true
	} else if st.coolantC <= c.ThermostatOpenC {
		st.thermoOn = false
	}
	target := 0.0
	if st.thermoOn {
		target = 1.0
	}
	st.thermoFrac += (target - st.thermoFrac) * lpAlpha(dt, 12) // ~12 s lag

	// Radiator rejection: proportional to opening, flow and ΔT to
	// ambient. The coefficient approximates the full radiator bank.
	ua := 90.0 * (0.15 + 0.85*st.thermoFrac) * (0.5 + 0.5*airSpeedFactor(st.speedKPH))
	qOut := ua * (st.coolantC - c.AmbientC) * 4.2 // bank-level W/K scale

	st.coolantC += (qIn - qOut) / c.ThermalMassJK * dt
	// The coolant cannot drop below ambient nor survive past boiling —
	// the cap models the pressure-relief limit.
	if st.coolantC < c.AmbientC {
		st.coolantC = c.AmbientC
	}
	if st.coolantC > 115 {
		st.coolantC = 115
	}
}

// lpAlpha is the forward-Euler blend factor of a first-order low-pass
// with time constant tau, saturated at 1 so coarse sample periods track
// the input instead of diverging.
func lpAlpha(dt, tau float64) float64 {
	a := dt / tau
	if a > 1 {
		return 1
	}
	return a
}

// airSpeedFactor folds ram air into the rejection capacity.
func airSpeedFactor(speedKPH float64) float64 {
	f := speedKPH / 60
	if f > 1.5 {
		f = 1.5
	}
	return f
}

// pathCoolantFlow returns the per-path coolant mass flow: pump speed
// follows engine speed (itself speed-dependent above idle), gated by the
// thermostat fraction, split across the parallel radiator paths.
func pathCoolantFlow(st *driveState, c *SynthConfig) float64 {
	rpm := 850 + st.speedKPH*28 // crude gearing: 60 km/h ≈ 2500 rpm
	totalLPM := rpm / 2500 * 90 // 90 L/min at 2500 rpm
	frac := 0.12 + 0.88*st.thermoFrac
	kgs := totalLPM / 60 / 1000 * thermal.Coolant50Glycol.Density * frac
	return kgs / float64(c.RadiatorPaths)
}

// pathAirFlow returns the per-path air mass flow from fan plus ram air.
func pathAirFlow(st *driveState, c *SynthConfig) float64 {
	total := 6.0 * (0.35 + 0.65*airSpeedFactor(st.speedKPH)) // kg/s across the bank
	return total / float64(c.RadiatorPaths)
}

// ConditionsAt converts one trace row into the radiator boundary
// conditions consumed by the thermal model.
func ConditionsAt(tr *trace.Trace, t float64) (thermal.Conditions, error) {
	row, err := tr.At(t)
	if err != nil {
		return thermal.Conditions{}, err
	}
	iIn := tr.ChannelIndex(ChanCoolantInC)
	iFlow := tr.ChannelIndex(ChanCoolantFlow)
	iAmb := tr.ChannelIndex(ChanAmbientC)
	iAir := tr.ChannelIndex(ChanAirFlow)
	if iIn < 0 || iFlow < 0 || iAmb < 0 || iAir < 0 {
		return thermal.Conditions{}, fmt.Errorf("drive: trace missing radiator channels")
	}
	return thermal.Conditions{
		CoolantInletC:  row[iIn],
		CoolantFlowKgS: row[iFlow],
		AirInletC:      row[iAmb],
		AirFlowKgS:     row[iAir],
	}, nil
}

// PathTrace applies one radiator-bank path's flow weight w (from
// thermal.Bank.FlowWeights) to a trace of per-path-average conditions:
// coolant flow scales by w, and air flow, which the open fin area
// maldistributes less, by 1+(w−1)/2. It returns a new trace; w = 1
// reproduces tr's values exactly.
func PathTrace(tr *trace.Trace, w float64) (*trace.Trace, error) {
	scaled, err := tr.ScaleChannel(ChanCoolantFlow, w)
	if err != nil {
		return nil, err
	}
	return scaled.ScaleChannel(ChanAirFlow, 1+(w-1)/2)
}
