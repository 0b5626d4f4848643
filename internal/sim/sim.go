// Package sim closes the loop of Section VI: it steps a drive trace
// through the radiator thermal model, lets a reconfiguration controller
// choose the array topology each control period, operates the chosen
// configuration with the perturb-and-observe MPPT through the converter
// into the battery, and accounts delivered energy, switching overhead and
// controller runtime — the quantities of Table I and Figs. 6–7.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"tegrecon/internal/charger"
	"tegrecon/internal/converter"
	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/faults"
	"tegrecon/internal/switchfab"
	"tegrecon/internal/teg"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// System bundles the physical plant of the experiments.
type System struct {
	Radiator *thermal.Radiator
	Spec     teg.ModuleSpec
	Modules  int
	Conv     converter.Model
	Overhead switchfab.OverheadModel
}

// DefaultSystem returns the 100-module experimental rig of Section VI:
// default radiator, TGM-199-1.4-0.8 modules, LTM4607 charger, default
// overhead model.
func DefaultSystem() *System {
	return &System{
		Radiator: thermal.DefaultRadiator(),
		Spec:     teg.TGM199,
		Modules:  100,
		Conv:     converter.LTM4607(),
		Overhead: switchfab.DefaultOverhead(),
	}
}

// Validate checks the system description.
func (s *System) Validate() error {
	if s.Radiator == nil {
		return fmt.Errorf("sim: nil radiator")
	}
	if err := s.Radiator.Validate(); err != nil {
		return err
	}
	if err := s.Spec.Validate(); err != nil {
		return err
	}
	if s.Modules <= 0 {
		return fmt.Errorf("sim: non-positive module count %d", s.Modules)
	}
	return s.Conv.Validate()
}

// MaxSensorNoiseC bounds Options.SensorNoiseC on every entry: the
// facade, the serve API, scenario specs and checkpoint restore.
const MaxSensorNoiseC = 50.0

// Options tune a simulation run.
type Options struct {
	// TickSeconds is the control period (0.5 s in the paper).
	TickSeconds float64
	// SensorNoiseC is the standard deviation of the temperature sensing
	// noise seen by the controller (the plant uses true temperatures).
	SensorNoiseC float64
	// Seed drives the sensor noise.
	Seed int64
	// Battery, when true, terminates the chain in a lead-acid battery
	// and reports stored energy too.
	Battery bool
	// SelfCheck runs energy-conservation assertions every tick (slower;
	// used by tests).
	SelfCheck bool
	// FaultPlan, when non-nil, injects module failures during the run
	// (see the faults package). Failed modules read as ambient
	// temperature to the controller — the fault-detection abstraction:
	// a dead module is indistinguishable from a stone-cold one, and
	// both demand zero MPP current.
	FaultPlan *faults.Plan
	// ChargeProfile, when non-nil (and Battery is enabled), schedules
	// the converter's output voltage through the three-stage lead-acid
	// strategy instead of the fixed 13.8 V float.
	ChargeProfile *charger.Profile
	// Deprecated: DeterministicRuntime is ignored; controller runtime
	// is always counted work (core.Decision.ComputeTime). It remains
	// only because perfbench assigns it.
	DeterministicRuntime bool
	// StartTime is the session clock's origin in seconds: Tick.Time
	// stamps and fault-plan advances run on this clock. Run overrides it
	// with the trace's first timestamp; a live Session usually leaves
	// it 0.
	StartTime float64
	// OnTick, when non-nil, observes every Tick as it is produced —
	// streaming output for live dashboards, progress lines and
	// checkpointers. It is called synchronously from the simulation
	// goroutine; when one Options value fans out across a Batch, the
	// callback fires from many goroutines at once and must be safe for
	// concurrent use.
	OnTick func(Tick)
	// KeepTicks buffers every Tick in Result.Ticks. DefaultOptions sets
	// it true (the pre-Session behaviour every figure generator relies
	// on); long sweeps that only read the Result summaries switch it off
	// to stop paying O(duration) memory per run. A zero-valued Options
	// literal must opt back in explicitly.
	KeepTicks bool
	// PhaseSampleEvery, when positive, wall-clock-times the four tick
	// phases (temps/sense/decide/act) on every N-th control period and
	// accumulates the samples into Result.Phases. 0 (the default)
	// disables timing entirely and keeps Step on its zero-allocation
	// path. The timings are observability only: they never enter
	// serialized payloads or checkpoints, so two runs differing only in
	// this knob produce bit-identical physics.
	PhaseSampleEvery int
}

// DefaultOptions returns the experimental settings.
func DefaultOptions() Options {
	return Options{TickSeconds: 0.5, SensorNoiseC: 0.1, Seed: 7, Battery: false, KeepTicks: true}
}

// Tick is the per-control-period record behind Figs. 6 and 7.
type Tick struct {
	Time     float64 // seconds from trace start
	GrossW   float64 // delivered power at the tracked operating point
	NetW     float64 // after subtracting this tick's overhead energy
	IdealW   float64 // Σ module MPPs (Fig. 7 normaliser)
	Ratio    float64 // NetW / IdealW (0 when IdealW is 0)
	Switched bool    // a fabric reprogram happened this tick
	Toggles  int     // switch actuations this tick
	Overhead float64 // overhead energy charged this tick, J
	Runtime  time.Duration
	Groups   int     // series group count of the active configuration
	TEGEff   float64 // thermal→electrical conversion efficiency at the operating point
}

// Result aggregates one scheme's run — one column of Table I.
type Result struct {
	Scheme        string
	EnergyOutJ    float64 // net delivered energy (Table I "Energy Output")
	OverheadJ     float64 // total switching overhead (Table I "Switch Overhead")
	SwitchEvents  int     // fabric reprograms
	SwitchToggles int     // individual switch actuations
	AvgRuntime    time.Duration
	MaxRuntime    time.Duration
	IdealEnergyJ  float64
	AvgTEGEff     float64 // mean conversion efficiency over producing ticks
	BatteryJ      float64 // energy stored in the battery (if enabled)
	// Phases holds sampled per-phase wall-clock timings when
	// Options.PhaseSampleEvery is set (zero value otherwise). Excluded
	// from serialized payloads and checkpoints — see report.MarshalResult.
	Phases PhaseTimings
	Ticks  []Tick
}

// Clone returns a deep copy of the result: the tick buffer (the only
// slice-backed field) gets its own backing array, so the copy is
// immune to in-place mutation of the original.
//
// Ownership rule: Session.Result returns the session's *live*
// accumulator — further Steps mutate it (and append to its Ticks) in
// place. Any Result that escapes the stepping goroutine — a service
// handler's response, a cache back-fill, a summary published while
// stepping continues — must be a Clone taken under the same
// synchronization that guards Step, or readers can observe torn state.
// Results of completed runs (Run, Batch) whose session is discarded
// need no clone.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r
	if r.Ticks != nil {
		out.Ticks = append([]Tick(nil), r.Ticks...)
	}
	return &out
}

// Run simulates one controller over the trace. It is a thin trace-replay
// wrapper over Session: the trace supplies each period's radiator
// boundary conditions, Session does the physics. The context is checked
// once per control period, so a cancel aborts within one tick of the
// simulated loop and the returned error wraps ctx.Err().
func Run(ctx context.Context, sys *System, tr *trace.Trace, ctrl core.Controller, opts Options) (*Result, error) {
	if tr == nil || tr.Len() < 2 {
		return nil, fmt.Errorf("sim: trace too short")
	}
	opts.StartTime = tr.Times[0]
	sess, err := NewSession(sys, ctrl, opts)
	if err != nil {
		return nil, err
	}
	ticks := ticksFor(tr, opts.TickSeconds)
	if opts.KeepTicks {
		// The replay knows its span up front; pre-size the buffer the way
		// the pre-Session monolith did.
		sess.res.Ticks = make([]Tick, 0, ticks)
	}
	for k := 0; k < ticks; k++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: %s canceled at t=%g: %w", ctrl.Name(), sess.Now(), err)
		}
		cond, err := drive.ConditionsAt(tr, sess.Now())
		if err != nil {
			return nil, fmt.Errorf("sim: t=%g: %w", sess.Now(), err)
		}
		if _, err := sess.Step(cond); err != nil {
			return nil, err
		}
	}
	return sess.Result(), nil
}

// ticksFor is the control-period count of a trace replay.
func ticksFor(tr *trace.Trace, tickSeconds float64) int {
	return int(math.Floor(tr.Duration()/tickSeconds)) + 1
}

// TempSequence is the true per-tick module temperature sequence of a
// trace replay on a system: row k holds the modules' temperatures at
// the trace's first timestamp plus k control periods. It is the ground
// truth the predictors forecast (Fig. 5) and the oracle replays; rows
// are computed when asked for, so a long replay costs no ticks × N
// slab. It implements predict.Truth.
type TempSequence struct {
	Sys         *System
	Trace       *trace.Trace
	TickSeconds float64
}

// Len is the replay's control-period count.
func (q TempSequence) Len() int { return ticksFor(q.Trace, q.TickSeconds) }

// Conditions returns the radiator boundary conditions at tick k.
func (q TempSequence) Conditions(k int) (thermal.Conditions, error) {
	return drive.ConditionsAt(q.Trace, q.Trace.Times[0]+float64(k)*q.TickSeconds)
}

// Temps returns the module temperatures at tick k.
func (q TempSequence) Temps(k int) ([]float64, error) {
	cond, err := q.Conditions(k)
	if err != nil {
		return nil, err
	}
	return q.Sys.Radiator.ModuleTemps(cond, q.Sys.Modules)
}

// All materializes the whole sequence, one row per control period —
// the input of an offline forecast evaluation (predict.Compare).
func (q TempSequence) All() ([][]float64, error) {
	out := make([][]float64, q.Len())
	for k := range out {
		row, err := q.Temps(k)
		if err != nil {
			return nil, err
		}
		out[k] = row
	}
	return out, nil
}
