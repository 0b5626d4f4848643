package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tegrecon/internal/array"
	"tegrecon/internal/battery"
	"tegrecon/internal/core"
	"tegrecon/internal/faults"
	"tegrecon/internal/mppt"
	"tegrecon/internal/teg"
	"tegrecon/internal/thermal"
)

// Session is the incremental simulation engine: one controller, one
// system, stepped one control period at a time. Where Run consumes a
// complete pre-built trace, a Session is fed its radiator boundary
// conditions call by call, so it can be driven from live telemetry,
// checkpointed mid-run (Result is callable at any point), interleaved
// with thousands of siblings, or simply replayed from a trace — which is
// exactly what Run now does.
//
// The paper's controllers are online algorithms deciding a topology
// every 0.5 s from the temperatures of that instant; Session is the
// engine shape that matches them. A Session is not safe for concurrent
// use; drive each instance from one goroutine.
type Session struct {
	sys  *System
	ctrl core.Controller
	opts Options

	rng          *rand.Rand
	rngDraws     int64 // NormFloat64 calls consumed from rng (checkpoint replay position)
	bat          *battery.LeadAcid
	faultTracker *faults.Tracker
	tracker      *mppt.Tracker
	trackerIdled bool
	prev         array.Config // previous topology, session-owned copy
	havePrev     bool
	powerOn      array.Config
	sc           *scratch // reusable tick-loop work state (see scratch.go)

	res          *Result
	totalRuntime time.Duration
	effSum       float64
	effN         int
	steps        int
	phases       PhaseTimings // sampled per-phase wall clock (see phases.go)
}

// NewSession validates the rig and builds a session at its power-on
// state: the switch fabric all-parallel (the zero-energy default of
// Fig. 4's network), the controller reset, the battery (when enabled)
// at its initial state of charge, and the session clock at
// opts.StartTime.
func NewSession(sys *System, ctrl core.Controller, opts Options) (*Session, error) {
	if sys == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if ctrl == nil {
		return nil, fmt.Errorf("sim: nil controller")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	var bat *battery.LeadAcid
	if opts.Battery {
		var err error
		bat, err = battery.NewLeadAcid(0.6)
		if err != nil {
			return nil, err
		}
	}
	if opts.ChargeProfile != nil {
		if err := opts.ChargeProfile.Validate(); err != nil {
			return nil, err
		}
	}

	var faultTracker *faults.Tracker
	if opts.FaultPlan != nil {
		if opts.FaultPlan.Modules() != sys.Modules {
			return nil, fmt.Errorf("sim: fault plan for %d modules on a %d-module system", opts.FaultPlan.Modules(), sys.Modules)
		}
		var err error
		faultTracker, err = faults.NewTracker(opts.FaultPlan)
		if err != nil {
			return nil, err
		}
	}

	ctrl.Reset()
	return &Session{
		sys:          sys,
		ctrl:         ctrl,
		opts:         opts,
		rng:          rand.New(rand.NewSource(opts.Seed)),
		bat:          bat,
		faultTracker: faultTracker,
		// The fabric's power-on state: every boundary in parallel. The
		// first reprogram is priced against it, so commissioning a
		// topology pays its real toggle count instead of a zero-toggle
		// no-op.
		powerOn: array.AllParallel(sys.Modules),
		sc:      newScratch(),
		res:     &Result{Scheme: ctrl.Name()},
	}, nil
}

// Steps returns how many control periods have been simulated.
func (s *Session) Steps() int { return s.steps }

// TickSeconds returns the session's control period length.
func (s *Session) TickSeconds() float64 { return s.opts.TickSeconds }

// Now returns the session-clock timestamp the next Step will carry
// (StartTime + steps·TickSeconds).
func (s *Session) Now() float64 {
	return s.opts.StartTime + float64(s.steps)*s.opts.TickSeconds
}

// Step advances the session one control period under the given radiator
// boundary conditions: it senses (noisy) module temperatures, asks the
// controller for a topology, operates the chosen configuration through
// the MPPT and converter into the battery, and accounts energy and
// switching overhead. It returns the period's Tick record (also passed
// to Options.OnTick and, when Options.KeepTicks is set, buffered into
// the Result).
func (s *Session) Step(cond thermal.Conditions) (Tick, error) {
	if err := s.tickTemps(cond); err != nil {
		return Tick{}, err
	}
	if err := s.tickSense(cond); err != nil {
		return Tick{}, err
	}
	if err := s.tickDecide(cond); err != nil {
		return Tick{}, err
	}
	return s.tickAct(cond)
}

// tickTemps is Step's plant-input phase: solve the radiator under this
// period's boundary conditions into the scratch's module-temperature
// row.
func (s *Session) tickTemps(cond thermal.Conditions) error {
	timed := s.phaseTimed()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var err error
	s.sc.temps, err = s.sys.Radiator.ModuleTempsInto(s.sc.temps, cond, s.sys.Modules)
	if err != nil {
		return fmt.Errorf("sim: t=%g: %w", s.Now(), err)
	}
	if timed {
		s.phases.TempsNs += time.Since(t0).Nanoseconds()
	}
	return nil
}

// tickSense is Step's measurement phase: advance the fault plan to the
// session clock and build the controller's noisy view of the module
// temperatures, masking dead modules to ambient.
func (s *Session) tickSense(cond thermal.Conditions) error {
	timed := s.phaseTimed()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	sc := s.sc
	sc.health = nil
	if s.faultTracker != nil {
		var err error
		sc.health, _, err = s.faultTracker.AdvanceTo(s.Now())
		if err != nil {
			return err
		}
	}
	if cap(sc.sensed) < len(sc.temps) {
		sc.sensed = make([]float64, len(sc.temps))
	}
	sc.sensed = sc.sensed[:len(sc.temps)]
	// The draw count, not the raw seed, is the RNG's checkpointable
	// position: NormFloat64 consumes a variable number of source words
	// (ziggurat rejection), so a restored session fast-forwards by
	// replaying this many NormFloat64 calls (see RestoreSession).
	s.rngDraws += int64(len(sc.temps))
	for i, tv := range sc.temps {
		sc.sensed[i] = tv + s.rng.NormFloat64()*s.opts.SensorNoiseC
		if sc.health != nil && sc.health[i] != array.Healthy {
			// Fault detection: the controller sees a dead module as one
			// at ambient (zero harvestable ΔT).
			sc.sensed[i] = cond.AirInletC
		}
	}
	if timed {
		s.phases.SenseNs += time.Since(t0).Nanoseconds()
	}
	return nil
}

// tickDecide is Step's control phase: ask the controller for this
// period's topology. The decision (whose Config aliases controller
// storage until the next Decide) is parked on the scratch for tickAct.
func (s *Session) tickDecide(cond thermal.Conditions) error {
	timed := s.phaseTimed()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var err error
	s.sc.dec, err = s.ctrl.Decide(s.steps, s.sc.sensed, cond.AirInletC)
	if err != nil {
		return fmt.Errorf("sim: %s at t=%g: %w", s.ctrl.Name(), s.Now(), err)
	}
	if timed {
		s.phases.DecideNs += time.Since(t0).Nanoseconds()
	}
	return nil
}

// tickAct is Step's plant-and-accounting phase: operate the decided
// configuration through the MPPT and converter into the battery, charge
// the switching overhead, and commit the period into the Result
// accumulators and the session clock.
func (s *Session) tickAct(cond thermal.Conditions) (Tick, error) {
	timed := s.phaseTimed()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	now := s.Now()
	sc := s.sc
	dec, health := sc.dec, sc.health
	var err error
	computeTime := dec.ComputeTime

	// Plant: true temperatures (and true health), chosen config. The
	// array is assembled in place over the scratch: the spec was
	// validated by NewSession and the fault tracker's module count
	// against the system's, so the array.NewWithHealth checks hold by
	// construction.
	sc.ops = teg.OpsFromTempsInto(sc.ops, sc.temps, cond.AirInletC)
	sc.arr = array.Array{Spec: s.sys.Spec, Ops: sc.ops, Health: health}
	arr := &sc.arr
	arr.NortonInto(&sc.nt)
	if err := sc.nt.EquivalentInto(&sc.eq, dec.Config); err != nil {
		return Tick{}, fmt.Errorf("sim: %s produced bad config at t=%g: %w", s.ctrl.Name(), now, err)
	}
	// The charger's P&O search window spans the configuration's
	// short-circuit current; a topology change discards the old
	// operating point (cold restart — part of the MPPT-settle overhead
	// the switch accounting charges). The charging stage (when
	// scheduled) retargets the converter's output voltage, shifting its
	// efficiency peak.
	sc.conv = s.sys.Conv
	if s.opts.ChargeProfile != nil {
		sc.conv.OutputVoltage = s.opts.ChargeProfile.TargetVoltage(s.bat.SoC)
	}
	var gross, opCurrent float64
	usable := !sc.eq.Broken && sc.eq.Voc > 0 && sc.eq.R > 0
	if usable {
		// A topology change cold-restarts the tracker, and so does any
		// recovery from an unusable circuit (a broken chain, or a
		// zero-EMF spell with every module at ambient): while tracking
		// was suspended the tracker slept on whatever circuit preceded
		// the outage, so its search window's short-circuit current is
		// stale and can clamp the recovered array far below its MPP.
		// The tracker object itself is reused (Retune) — a cold restart
		// resets its state, not its storage.
		if s.tracker == nil || dec.Switched || s.trackerIdled {
			isc := sc.eq.Voc / sc.eq.R
			if s.tracker == nil {
				s.tracker, err = mppt.New(mppt.DefaultOptions(isc))
			} else {
				err = s.tracker.Retune(mppt.DefaultOptions(isc))
			}
			if err != nil {
				return Tick{}, err
			}
		}
		op := s.tracker.Track(sc.deliver)
		gross, opCurrent = op.Power, op.Current
	}
	s.trackerIdled = !usable

	if s.opts.SelfCheck {
		if rel, err := arr.EnergyConservationCheck(dec.Config, opCurrent); err != nil || rel > 1e-6 {
			return Tick{}, fmt.Errorf("sim: energy conservation violated at t=%g: rel=%v err=%v", now, rel, err)
		}
	}

	// Overhead accounting: only fabric reprograms cost energy.
	overheadJ := 0.0
	toggles := 0
	if dec.Switched {
		prev := s.powerOn
		if s.havePrev {
			prev = s.prev
		}
		cost, err := s.sys.Overhead.ForcedCost(prev, dec.Config, gross, computeTime)
		if err != nil {
			return Tick{}, err
		}
		overheadJ = cost.Energy
		toggles = cost.SwitchCount
	}
	netJ := gross*s.opts.TickSeconds - overheadJ
	if netJ < 0 {
		netJ = 0
	}

	tegEff := 0.0
	if gross > 0 {
		sc.currents = sc.nt.ModuleCurrentsInto(sc.currents, sc.eq, dec.Config, opCurrent)
		tegEff, err = arr.ConversionEfficiencyAt(sc.eq, dec.Config, opCurrent, sc.currents)
		if err != nil {
			return Tick{}, err
		}
	}
	if s.bat != nil {
		if _, err := s.bat.Accept(netJ/s.opts.TickSeconds, s.opts.TickSeconds); err != nil {
			return Tick{}, err
		}
	}

	// Commit. Every fallible call is behind us, so a Step that returned
	// an error above has left the Result accumulators and the session
	// clock untouched — Result() stays consistent after a failure, and
	// nothing is double-counted. (Plant state — controller history, MPPT
	// window, battery charge — is not rolled back; treat a failed Step as
	// the end of the session, not a retryable blip.)
	ideal := arr.IdealPower()
	tick := Tick{
		Time:     now,
		GrossW:   gross,
		NetW:     netJ / s.opts.TickSeconds,
		IdealW:   ideal,
		Switched: dec.Switched,
		Toggles:  toggles,
		Overhead: overheadJ,
		Runtime:  computeTime,
		Groups:   dec.Config.Groups(),
		TEGEff:   tegEff,
	}
	if ideal > 0 {
		tick.Ratio = tick.NetW / ideal
	}
	if s.opts.KeepTicks {
		s.res.Ticks = append(s.res.Ticks, tick)
	}
	if dec.Switched {
		s.res.SwitchEvents++
		s.res.SwitchToggles += toggles
	}
	s.totalRuntime += computeTime
	if computeTime > s.res.MaxRuntime {
		s.res.MaxRuntime = computeTime
	}
	s.res.EnergyOutJ += netJ
	s.res.OverheadJ += overheadJ
	s.res.IdealEnergyJ += ideal * s.opts.TickSeconds
	if tegEff > 0 {
		s.effSum += tegEff
		s.effN++
	}
	// Copy the decided topology into session-owned storage: the
	// controller's next Decide may overwrite the buffer backing
	// dec.Config (core.Decision's aliasing contract).
	s.prev = sc.setPrev(dec.Config)
	s.havePrev = true
	if timed {
		s.phases.ActNs += time.Since(t0).Nanoseconds()
		s.phases.Samples++
	}
	s.steps++

	if s.opts.OnTick != nil {
		s.opts.OnTick(tick)
	}
	return tick, nil
}

// Result finalizes the aggregate statistics (average runtime, mean TEG
// efficiency, battery energy) and returns the session's Result. It is a
// checkpoint, not a terminator: it may be called at any point — even
// mid-run — and stepping may continue afterwards; the returned value is
// the session's live accumulator, updated in place by further Steps.
// A caller that lets the value escape the stepping goroutine (or merely
// outlive the next Step) must take Result().Clone() instead — see
// Result.Clone for the ownership rule.
func (s *Session) Result() *Result {
	if s.steps > 0 {
		s.res.AvgRuntime = s.totalRuntime / time.Duration(s.steps)
	}
	if s.effN > 0 {
		s.res.AvgTEGEff = s.effSum / float64(s.effN)
	}
	if s.bat != nil {
		s.res.BatteryJ = s.bat.AbsorbedJoules()
	}
	s.res.Phases = s.phases
	return s.res
}

// Validate rejects option values the engine cannot run: a control
// period that is not a positive finite number (NaN used to slip past
// the old `<= 0` check and poison the tick count), sensor noise outside
// [0, MaxSensorNoiseC], a non-finite session clock origin, and a
// charge profile without the battery it drives.
//
// Memory contract (KeepTicks / OnTick): a run's resident cost is
// O(duration) only when KeepTicks is true — every Tick is then buffered
// into Result.Ticks. With KeepTicks false the engine allocates no tick
// slice at all (Result.Ticks stays nil) and a summary-only run is O(1)
// memory regardless of length; OnTick still observes every record as it
// is produced, so streaming consumers lose nothing. Any KeepTicks/OnTick
// combination is valid, so Validate never rejects one — the contract is
// stated here because this is where Options semantics are checked and
// documented.
func (o Options) Validate() error {
	if math.IsNaN(o.TickSeconds) || math.IsInf(o.TickSeconds, 0) || o.TickSeconds <= 0 {
		return fmt.Errorf("sim: tick period %g is not a positive finite number of seconds", o.TickSeconds)
	}
	if !(o.SensorNoiseC >= 0 && o.SensorNoiseC <= MaxSensorNoiseC) {
		return fmt.Errorf("sim: sensor noise %g outside [0, %g] °C", o.SensorNoiseC, MaxSensorNoiseC)
	}
	if math.IsNaN(o.StartTime) || math.IsInf(o.StartTime, 0) {
		return fmt.Errorf("sim: non-finite start time %g", o.StartTime)
	}
	if o.ChargeProfile != nil && !o.Battery {
		return fmt.Errorf("sim: charge profile requires the battery")
	}
	if o.PhaseSampleEvery < 0 {
		return fmt.Errorf("sim: negative phase sample interval %d", o.PhaseSampleEvery)
	}
	return nil
}
