// Package tegrecon is the public API of the TEG-reconfiguration library:
// a Go reproduction of "Prediction-Based Fast Thermoelectric Generator
// Reconfiguration for Energy Harvesting from Vehicle Radiators"
// (DATE 2018).
//
// The package re-exports the stable surface of the internal packages:
// the radiator/TEG plant model, the reconfiguration controllers (INOR,
// DNOR, EHTR, static baseline), the temperature predictors (MLR, BPNN,
// SVR), the drive-cycle generator and the closed-loop simulator.
//
// Quick start:
//
//	tr, _ := tegrecon.SynthesizeDrive(tegrecon.DefaultDriveConfig())
//	sys := tegrecon.DefaultSystem()
//	ctrl, _ := tegrecon.NewControllerByName("DNOR", sys)
//	res, _ := tegrecon.Simulate(context.Background(), sys, tr, ctrl, tegrecon.DefaultSimOptions())
//	fmt.Printf("harvested %.1f J with %d switches\n", res.EnergyOutJ, res.SwitchEvents)
package tegrecon

import (
	"context"

	"tegrecon/internal/array"
	"tegrecon/internal/charger"
	"tegrecon/internal/converter"
	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/faults"
	"tegrecon/internal/predict"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/switchfab"
	"tegrecon/internal/teg"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// Re-exported plant types.
type (
	// System is the physical rig: radiator, modules, converter, switch
	// fabric overhead model.
	System = sim.System
	// SimOptions tunes a simulation run.
	SimOptions = sim.Options
	// SimResult is one scheme's run summary (a Table I column).
	SimResult = sim.Result
	// SimTick is the per-control-period record (Figs. 6–7 data).
	SimTick = sim.Tick
	// Session is the incremental simulation engine: one control period
	// per Step call, driven by live (or replayed) radiator conditions.
	Session = sim.Session
	// Controller decides the array topology every control period.
	Controller = sim.Controller
	// Decision is a controller's per-period output.
	Decision = sim.Decision
	// ModuleSpec is a TEG module datasheet model.
	ModuleSpec = teg.ModuleSpec
	// Radiator is the finned-tube cross-flow heat-exchanger model.
	Radiator = thermal.Radiator
	// RadiatorConditions are the per-instant boundary conditions.
	RadiatorConditions = thermal.Conditions
	// ConverterModel is the LTM4607-style charger efficiency model.
	ConverterModel = converter.Model
	// OverheadModel prices switching events.
	OverheadModel = switchfab.OverheadModel
	// Trace is a multi-channel time series (drive traces).
	Trace = trace.Trace
	// DriveConfig parameterises the synthetic drive-cycle generator.
	DriveConfig = drive.SynthConfig
	// DriveCycle is an embedded standard drive cycle (NEDC, WLTC, ...).
	DriveCycle = drive.Cycle
	// DriveSchedule is a prescribed speed-vs-time series.
	DriveSchedule = drive.Schedule
	// Predictor forecasts temperature distributions.
	Predictor = predict.Predictor
	// FaultPlan schedules module failures for a simulation run.
	FaultPlan = faults.Plan
	// ChargeProfile is the three-stage lead-acid charging schedule.
	ChargeProfile = charger.Profile
	// ModuleHealth is a module failure state.
	ModuleHealth = array.ModuleHealth
	// ScenarioMatrix is a declarative multi-axis scenario grid (cycles
	// × schemes × ambients × flow splits × fault plans × array sizes)
	// that expands into a deterministic, stably-ordered job list.
	ScenarioMatrix = scenario.Matrix
	// MatrixOptions tunes a scenario-matrix sweep's engine.
	MatrixOptions = experiments.MatrixOptions
	// MatrixResult holds a matrix sweep's per-cell results and
	// marginal roll-ups.
	MatrixResult = experiments.MatrixResult
)

// TGM199 is the TGM-199-1.4-0.8 module model the paper uses.
var TGM199 = teg.TGM199

// DefaultSystem returns the paper's 100-module experimental rig.
func DefaultSystem() *System { return sim.DefaultSystem() }

// DefaultSimOptions returns the paper's control settings (0.5 s period).
func DefaultSimOptions() SimOptions { return sim.DefaultOptions() }

// DefaultDriveConfig returns the 800 s warm-start urban drive.
func DefaultDriveConfig() DriveConfig { return drive.DefaultSynthConfig() }

// SynthesizeDrive generates a repeatable synthetic drive trace.
func SynthesizeDrive(cfg DriveConfig) (*Trace, error) { return drive.Synthesize(cfg) }

// StandardCycles returns the embedded regulatory drive cycles (NEDC,
// WLTC, FTP-75, HWFET, US06) plus the project delivery cycle.
func StandardCycles() []DriveCycle { return drive.Cycles() }

// CycleByName looks a standard cycle up case-insensitively.
func CycleByName(name string) (DriveCycle, error) { return drive.CycleByName(name) }

// CycleNames returns the registered standard cycle names in registry
// order (the list CycleByName accepts).
func CycleNames() []string { return drive.CycleNames() }

// SynthesizeFromSchedule drives the thermal state machine from a
// prescribed speed schedule (a standard cycle's, or one ingested from a
// measured log) instead of the stochastic profile.
func SynthesizeFromSchedule(cfg DriveConfig, s DriveSchedule) (*Trace, error) {
	return drive.FromSpeedSchedule(cfg, s)
}

// Simulate runs one controller over a drive trace on the given system.
// The context is checked once per control period, so a cancel aborts
// within one tick and the returned error wraps ctx.Err().
//
// Memory contract: with SimOptions.KeepTicks true (the default) the
// result buffers one SimTick per control period — O(duration) resident
// memory. With KeepTicks false no tick slice is allocated at all
// (SimResult.Ticks stays nil) and the run is O(1) memory regardless of
// length; SimOptions.OnTick still observes every tick as it is
// produced, so streaming consumers pair KeepTicks=false with an OnTick
// callback and lose nothing but the retained buffer.
func Simulate(ctx context.Context, sys *System, tr *Trace, ctrl Controller, opts SimOptions) (*SimResult, error) {
	return sim.Run(ctx, sys, tr, ctrl, opts)
}

// NewSession builds an incremental simulation session: where Simulate
// consumes a complete pre-built trace, a Session is stepped one control
// period at a time from whatever supplies its radiator conditions — live
// telemetry, a replayed trace, or a test harness. Call Step once per
// period and Result to read (or checkpoint) the aggregate summary; set
// SimOptions.OnTick to stream per-period records and
// SimOptions.KeepTicks = false to drop the O(duration) tick buffer
// entirely (no tick slice is ever allocated — a summary-only session is
// O(1) memory no matter how long it runs).
func NewSession(sys *System, ctrl Controller, opts SimOptions) (*Session, error) {
	return sim.NewSession(sys, ctrl, opts)
}

// ConditionsAt interpolates a drive trace's radiator boundary conditions
// at time t — the bridge from a recorded trace to Session.Step.
func ConditionsAt(tr *Trace, t float64) (RadiatorConditions, error) {
	return drive.ConditionsAt(tr, t)
}

// Scheme is a registered reconfiguration scheme: name, description and
// controller factory. Scheme.New is the one way to build a controller.
type Scheme = sim.Scheme

// SchemeConfig tunes a scheme's controller: DNOR's horizon, control
// period and predictor. The zero value picks the paper's settings.
type SchemeConfig = sim.SchemeConfig

// SchemeNames returns the registered reconfiguration scheme names in
// registry order — the list NewControllerByName (and the tegserve API)
// accepts.
func SchemeNames() []string { return sim.SchemeNames() }

// SchemeByName looks a reconfiguration scheme up case-insensitively
// ("static" aliases the baseline).
func SchemeByName(name string) (Scheme, error) { return sim.SchemeByName(name) }

// NewControllerByName builds a fresh controller for any registered
// scheme with the paper's default tuning. For a tuned DNOR (another
// horizon, period or predictor) call SchemeByName("DNOR") and then
// Scheme.New with a SchemeConfig.
func NewControllerByName(name string, sys *System) (Controller, error) {
	sch, err := sim.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	return sch.New(sys, SchemeConfig{})
}

// NewMLRPredictor builds the paper's selected predictor with default
// tuning (AR order 4, 60-tick window).
func NewMLRPredictor() (Predictor, error) { return predict.NewMLR(predict.DefaultMLROptions()) }

// NewBPNNPredictor builds the neural-network comparison predictor.
func NewBPNNPredictor() (Predictor, error) { return predict.NewBPNN(predict.DefaultBPNNOptions()) }

// NewSVRPredictor builds the support-vector comparison predictor.
func NewSVRPredictor() (Predictor, error) { return predict.NewSVR(predict.DefaultSVROptions()) }

// NewHoltPredictor builds the double-exponential-smoothing comparison
// predictor (an extension beyond the paper's three methods).
func NewHoltPredictor() (Predictor, error) { return predict.NewHolt(predict.DefaultHoltOptions()) }

// NewRandomFaultPlan schedules `count` random module failures (open and
// short, distinct modules) over a drive of the given duration; wire the
// result into SimOptions.FaultPlan.
func NewRandomFaultPlan(modules, count int, duration float64, seed int64) (*FaultPlan, error) {
	return faults.RandomPlan(modules, count, duration, seed)
}

// RunScenarioMatrix expands and runs a declarative scenario matrix on
// the parallel batch engine. Every cell's seed derives from its
// canonical coordinate, so the sweep is bit-identical at any worker
// count. Cancelling ctx aborts the sweep.
func RunScenarioMatrix(ctx context.Context, m *ScenarioMatrix, opts MatrixOptions) (*MatrixResult, error) {
	return experiments.MatrixSweep(ctx, m, opts)
}

// DefaultChargeProfile returns the standard 14.4 V bulk/absorption,
// 13.8 V float lead-acid schedule; wire it into
// SimOptions.ChargeProfile (requires SimOptions.Battery).
func DefaultChargeProfile() ChargeProfile { return charger.DefaultProfile() }
