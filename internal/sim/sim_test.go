package sim

import (
	"context"
	"math"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/charger"
	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/faults"
	"tegrecon/internal/predict"
	"tegrecon/internal/teg"
	"tegrecon/internal/trace"
)

// shortTrace builds a quick 120 s drive trace for tests.
func shortTrace(t *testing.T) *trace.Trace {
	t.Helper()
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = 120
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newEval(t *testing.T, sys *System) *core.Evaluator {
	t.Helper()
	e, err := core.NewEvaluator(sys.Spec, sys.Conv)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newINOR(t *testing.T, sys *System) core.Controller {
	t.Helper()
	c, err := core.NewINOR(newEval(t, sys))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newDNOR(t *testing.T, sys *System) core.Controller {
	t.Helper()
	mlr, err := predict.NewMLR(predict.DefaultMLROptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewDNOR(newEval(t, sys), core.DNOROptions{
		Predictor:    mlr,
		HorizonTicks: 4,
		TickSeconds:  0.5,
		Overhead:     sys.Overhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newBaseline(t *testing.T, sys *System) core.Controller {
	t.Helper()
	c, err := core.NewBaseline10x10(sys.Modules)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaultSystemValid(t *testing.T) {
	if err := DefaultSystem().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	s := DefaultSystem()
	s.Radiator = nil
	if err := s.Validate(); err == nil {
		t.Error("nil radiator should error")
	}
	s2 := DefaultSystem()
	s2.Modules = 0
	if err := s2.Validate(); err == nil {
		t.Error("zero modules should error")
	}
	s3 := DefaultSystem()
	s3.Spec.Couples = 0
	if err := s3.Validate(); err == nil {
		t.Error("bad spec should error")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	ctrl := newBaseline(t, sys)
	opts := DefaultOptions()
	opts.TickSeconds = 0
	if _, err := Run(context.Background(), sys, tr, ctrl, opts); err == nil {
		t.Error("zero tick should error")
	}
	opts = DefaultOptions()
	opts.SensorNoiseC = -1
	if _, err := Run(context.Background(), sys, tr, ctrl, opts); err == nil {
		t.Error("negative noise should error")
	}
	if _, err := Run(context.Background(), sys, trace.New("x"), ctrl, DefaultOptions()); err == nil {
		t.Error("empty trace should error")
	}
}

func TestRunBaselineBasics(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.SelfCheck = true
	res, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "Baseline" {
		t.Error(res.Scheme)
	}
	wantTicks := int(tr.Duration()/opts.TickSeconds) + 1
	if len(res.Ticks) != wantTicks {
		t.Errorf("ticks = %d, want %d", len(res.Ticks), wantTicks)
	}
	if res.EnergyOutJ <= 0 {
		t.Error("baseline harvested nothing")
	}
	if res.SwitchEvents != 0 || res.OverheadJ != 0 {
		t.Errorf("static baseline paid overhead: %d events, %v J", res.SwitchEvents, res.OverheadJ)
	}
	if res.EnergyOutJ > res.IdealEnergyJ {
		t.Errorf("delivered %v exceeds ideal %v", res.EnergyOutJ, res.IdealEnergyJ)
	}
}

func TestRunINORBeatsBaseline(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	base, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	inor, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if inor.EnergyOutJ <= base.EnergyOutJ {
		t.Errorf("INOR %v J not better than baseline %v J", inor.EnergyOutJ, base.EnergyOutJ)
	}
	// INOR reprograms every tick.
	if inor.SwitchEvents != len(inor.Ticks) {
		t.Errorf("INOR switched %d times over %d ticks", inor.SwitchEvents, len(inor.Ticks))
	}
	if inor.OverheadJ <= 0 {
		t.Error("INOR overhead should be positive")
	}
}

func TestRunDNORReducesOverhead(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	inor, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	dnor, err := Run(context.Background(), sys, tr, newDNOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if dnor.SwitchEvents >= inor.SwitchEvents/4 {
		t.Errorf("DNOR switched %d times vs INOR %d — prediction is not suppressing switches", dnor.SwitchEvents, inor.SwitchEvents)
	}
	if dnor.OverheadJ >= inor.OverheadJ/4 {
		t.Errorf("DNOR overhead %v J vs INOR %v J", dnor.OverheadJ, inor.OverheadJ)
	}
	// Net energy should be at least INOR's (the paper shows it ahead).
	if dnor.EnergyOutJ < inor.EnergyOutJ*0.98 {
		t.Errorf("DNOR energy %v J fell below INOR %v J", dnor.EnergyOutJ, inor.EnergyOutJ)
	}
}

func TestRunTickInvariants(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	res, err := Run(context.Background(), sys, tr, newINOR(t, sys), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, tk := range res.Ticks {
		if tk.GrossW < 0 || tk.NetW < 0 {
			t.Fatalf("tick %d: negative power %+v", i, tk)
		}
		if tk.NetW > tk.GrossW+1e-9 {
			t.Fatalf("tick %d: net exceeds gross", i)
		}
		if tk.IdealW < tk.GrossW-1e-6 {
			t.Fatalf("tick %d: gross %v exceeds ideal %v", i, tk.GrossW, tk.IdealW)
		}
		if tk.Ratio < 0 || tk.Ratio > 1+1e-9 {
			t.Fatalf("tick %d: ratio %v out of range", i, tk.Ratio)
		}
		if tk.Groups < 1 {
			t.Fatalf("tick %d: %d groups", i, tk.Groups)
		}
		if i > 0 && math.Abs(tk.Time-res.Ticks[i-1].Time-0.5) > 1e-9 {
			t.Fatalf("tick %d: time stride broken", i)
		}
	}
}

func TestRunEnergyAccountingConsistent(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	res, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	sumNet, sumOverhead := 0.0, 0.0
	for _, tk := range res.Ticks {
		sumNet += tk.NetW * opts.TickSeconds
		sumOverhead += tk.Overhead
	}
	if math.Abs(sumNet-res.EnergyOutJ) > 1e-6*res.EnergyOutJ {
		t.Errorf("tick net sum %v != EnergyOutJ %v", sumNet, res.EnergyOutJ)
	}
	if math.Abs(sumOverhead-res.OverheadJ) > 1e-9 {
		t.Errorf("tick overhead sum %v != OverheadJ %v", sumOverhead, res.OverheadJ)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	a, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Topology decisions and gross harvest are exactly repeatable; only
	// the measured controller wall-clock (which the overhead model
	// deliberately charges, per Section III.C) varies between runs.
	if a.SwitchToggles != b.SwitchToggles || a.SwitchEvents != b.SwitchEvents {
		t.Errorf("switching differs: %d/%d vs %d/%d", a.SwitchEvents, a.SwitchToggles, b.SwitchEvents, b.SwitchToggles)
	}
	if math.Abs(a.EnergyOutJ-b.EnergyOutJ) > 1e-3*a.EnergyOutJ {
		t.Errorf("energies differ beyond runtime jitter: %v vs %v", a.EnergyOutJ, b.EnergyOutJ)
	}
	grossA, grossB := 0.0, 0.0
	for i := range a.Ticks {
		grossA += a.Ticks[i].GrossW
		grossB += b.Ticks[i].GrossW
	}
	if grossA != grossB {
		t.Errorf("gross power series differ: %v vs %v", grossA, grossB)
	}
}

func TestRunWithBattery(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.Battery = true
	res, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatteryJ <= 0 {
		t.Error("battery stored nothing")
	}
	// Battery sees net energy × charge efficiency.
	if res.BatteryJ > res.EnergyOutJ {
		t.Errorf("battery %v J exceeds delivered %v J", res.BatteryJ, res.EnergyOutJ)
	}
}

// fixedOnce programs one configuration on the first tick and holds it.
type fixedOnce struct{ cfg array.Config }

func (c *fixedOnce) Name() string { return "fixed" }
func (c *fixedOnce) Reset()       {}
func (c *fixedOnce) Decide(tick int, tempsC []float64, ambientC float64) (core.Decision, error) {
	return core.Decision{Config: c.cfg, Switched: tick == 0}, nil
}

func TestFirstProgramPaysCommissioningToggles(t *testing.T) {
	// The fabric powers on all-parallel, so the first reprogram must pay
	// the real toggle count of its target topology — it used to be priced
	// as a zero-toggle no-op (prev defaulted to the decided config).
	sys := DefaultSystem()
	sys.Modules = 20
	tr := shortTrace(t)
	cfg, err := array.Uniform(20, 10)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	res, err := Run(context.Background(), sys, tr, &fixedOnce{cfg: cfg}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform(20, 10) flips 9 of the 19 power-on parallel boundaries to
	// series; each flip actuates all three of its switches.
	const wantToggles = 9 * 3
	if res.SwitchEvents != 1 {
		t.Fatalf("switch events = %d, want 1", res.SwitchEvents)
	}
	if res.SwitchToggles != wantToggles {
		t.Errorf("commissioning toggles = %d, want %d", res.SwitchToggles, wantToggles)
	}
	if res.Ticks[0].Toggles != wantToggles {
		t.Errorf("first tick toggles = %d, want %d", res.Ticks[0].Toggles, wantToggles)
	}
	if min := float64(wantToggles) * sys.Overhead.SwitchEnergy; res.Ticks[0].Overhead <= min {
		t.Errorf("first tick overhead %v J does not cover %v J of actuation energy", res.Ticks[0].Overhead, min)
	}
	for i, tk := range res.Ticks[1:] {
		if tk.Toggles != 0 || tk.Switched {
			t.Fatalf("tick %d: unexpected switching %+v", i+1, tk)
		}
	}
}

func TestMPPTReinitAfterFaultRecovery(t *testing.T) {
	// Break a whole series group mid-run while the radiator heats up,
	// then repair it. The P&O tracker slept through the outage on a
	// search window sized for the cool pre-fault circuit; without a
	// re-init at the broken→recovered transition its stale short-circuit
	// current clamps the recovered array far below the new MPP.
	sys := DefaultSystem()
	sys.Modules = 20
	tr := trace.New(drive.ChanCoolantInC, drive.ChanCoolantFlow, drive.ChanAmbientC, drive.ChanAirFlow)
	for _, row := range [][]float64{
		{0, 40, 0.05, 25, 0.5},
		{5, 40, 0.05, 25, 0.5},
		{20, 110, 0.05, 25, 0.5}, // coolant ramps hard during the outage
		{30, 110, 0.05, 25, 0.5},
	} {
		if err := tr.Append(row[0], row[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := core.NewBaseline10x10(sys.Modules)
	if err != nil {
		t.Fatal(err)
	}
	// Group 0 of the 10×2 baseline is modules {0, 1}: failing both open
	// interrupts the series chain (eq.Broken) without any topology change.
	plan, err := faults.NewPlan(sys.Modules, []faults.Event{
		{TimeS: 5, Module: 0, To: array.FailedOpen},
		{TimeS: 5, Module: 1, To: array.FailedOpen},
		{TimeS: 20, Module: 0, To: array.Healthy},
		{TimeS: 20, Module: 1, To: array.Healthy},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SensorNoiseC = 0
	opts.FaultPlan = plan
	res, err := Run(context.Background(), sys, tr, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	tickAt := func(ts float64) Tick {
		for _, tk := range res.Ticks {
			if math.Abs(tk.Time-ts) < 1e-9 {
				return tk
			}
		}
		t.Fatalf("no tick at t=%v", ts)
		return Tick{}
	}
	if tk := tickAt(10); tk.GrossW != 0 {
		t.Fatalf("broken chain delivered %v W", tk.GrossW)
	}
	// Reference: the best deliverable power of the recovered circuit at
	// t=25 (trace is flat after the ramp, so the tracker has had 5 s of
	// settled conditions).
	cond, err := drive.ConditionsAt(tr, 25)
	if err != nil {
		t.Fatal(err)
	}
	temps, err := sys.Radiator.ModuleTemps(cond, sys.Modules)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := array.New(sys.Spec, teg.OpsFromTempsInto(nil, temps, cond.AirInletC))
	if err != nil {
		t.Fatal(err)
	}
	eval := newEval(t, sys)
	cfg, err := array.Uniform(sys.Modules, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, err := eval.Best(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Delivered <= 0 {
		t.Fatal("reference operating point delivers nothing")
	}
	if got := tickAt(25).GrossW; got < 0.9*best.Delivered {
		t.Errorf("post-recovery power %v W is stuck below 90%% of the achievable %v W — stale MPPT window", got, best.Delivered)
	}
}

func TestMPPTReinitAfterZeroEMFDip(t *testing.T) {
	// Same staleness family without any fault: the whole array sits at
	// ambient for a spell (zero EMF, tracking suspended), then the
	// coolant ramps far past its pre-dip level. The tracker must restart
	// on recovery instead of keeping the cool circuit's search window.
	sys := DefaultSystem()
	sys.Modules = 20
	tr := trace.New(drive.ChanCoolantInC, drive.ChanCoolantFlow, drive.ChanAmbientC, drive.ChanAirFlow)
	for _, row := range [][]float64{
		{0, 40, 0.05, 25, 0.5},
		{4, 40, 0.05, 25, 0.5},
		{5, 25, 0.05, 25, 0.5}, // coolant falls to ambient: zero ΔT everywhere
		{19, 25, 0.05, 25, 0.5},
		{20, 110, 0.05, 25, 0.5},
		{30, 110, 0.05, 25, 0.5},
	} {
		if err := tr.Append(row[0], row[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	ctrl, err := core.NewBaseline10x10(sys.Modules)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.SensorNoiseC = 0
	res, err := Run(context.Background(), sys, tr, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mid, late Tick
	for _, tk := range res.Ticks {
		if math.Abs(tk.Time-10) < 1e-9 {
			mid = tk
		}
		if math.Abs(tk.Time-25) < 1e-9 {
			late = tk
		}
	}
	if mid.GrossW != 0 {
		t.Fatalf("zero-EMF spell delivered %v W", mid.GrossW)
	}
	cond, err := drive.ConditionsAt(tr, 25)
	if err != nil {
		t.Fatal(err)
	}
	temps, err := sys.Radiator.ModuleTemps(cond, sys.Modules)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := array.New(sys.Spec, teg.OpsFromTempsInto(nil, temps, cond.AirInletC))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := array.Uniform(sys.Modules, 10)
	if err != nil {
		t.Fatal(err)
	}
	best, err := newEval(t, sys).Best(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if best.Delivered <= 0 {
		t.Fatal("reference operating point delivers nothing")
	}
	if late.GrossW < 0.9*best.Delivered {
		t.Errorf("post-dip power %v W stuck below 90%% of the achievable %v W — stale MPPT window", late.GrossW, best.Delivered)
	}
}

func TestRunWithFaultPlan(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	plan, err := faults.RandomPlan(sys.Modules, 15, tr.Duration(), 11)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FaultPlan = plan
	opts.SelfCheck = true

	inorClean, err := Run(context.Background(), sys, tr, newINOR(t, sys), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inorFault, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if inorFault.EnergyOutJ >= inorClean.EnergyOutJ {
		t.Errorf("faults did not reduce INOR energy: %v vs %v", inorFault.EnergyOutJ, inorClean.EnergyOutJ)
	}
	if inorFault.EnergyOutJ <= 0 {
		t.Error("INOR harvested nothing under faults")
	}
	// Ideal energy must also fall (failed modules excluded).
	if inorFault.IdealEnergyJ >= inorClean.IdealEnergyJ {
		t.Error("faulted ideal energy did not fall")
	}
}

func TestRunFaultsHitBaselineHarder(t *testing.T) {
	// With open failures scattered over the chain, the reconfiguring
	// scheme must capture a larger fraction of the surviving ideal
	// power than the static 10×10 baseline.
	sys := DefaultSystem()
	tr := shortTrace(t)
	plan, err := faults.RandomPlan(sys.Modules, 20, tr.Duration(), 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FaultPlan = plan
	inor, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	inorCapture := inor.EnergyOutJ / inor.IdealEnergyJ
	baseCapture := base.EnergyOutJ / base.IdealEnergyJ
	if inorCapture <= baseCapture {
		t.Errorf("INOR capture %v not above baseline %v under faults", inorCapture, baseCapture)
	}
}

func TestRunFaultPlanSizeMismatch(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	plan, err := faults.RandomPlan(50, 5, tr.Duration(), 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.FaultPlan = plan
	if _, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts); err == nil {
		t.Error("plan/system size mismatch should error")
	}
}

func TestRunReportsConversionEfficiency(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	res, err := Run(context.Background(), sys, tr, newINOR(t, sys), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Bi₂Te₃ at radiator ΔT: low single-digit percent.
	if res.AvgTEGEff < 0.005 || res.AvgTEGEff > 0.06 {
		t.Errorf("average TEG efficiency %v outside [0.5%%, 6%%]", res.AvgTEGEff)
	}
	for i, tk := range res.Ticks {
		if tk.TEGEff < 0 || tk.TEGEff > 0.1 {
			t.Fatalf("tick %d: efficiency %v out of range", i, tk.TEGEff)
		}
	}
}

func TestRunWithChargeProfile(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.Battery = true
	profile := charger.DefaultProfile()
	opts.ChargeProfile = &profile
	res, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatteryJ <= 0 {
		t.Error("charge-profile run stored nothing")
	}
	if res.EnergyOutJ <= 0 {
		t.Error("charge-profile run harvested nothing")
	}
}

func TestRunChargeProfileRequiresBattery(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	profile := charger.DefaultProfile()
	opts.ChargeProfile = &profile
	if _, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts); err == nil {
		t.Error("charge profile without battery should error")
	}
}

func TestRunChargeProfileValidated(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.Battery = true
	bad := charger.DefaultProfile()
	bad.FloatSoC = 0.1
	opts.ChargeProfile = &bad
	if _, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts); err == nil {
		t.Error("invalid profile should error")
	}
}
