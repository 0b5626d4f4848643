package tegrecon

import (
	"context"
	"errors"
	"testing"

	"tegrecon/internal/scenario"
)

func shortDrive(t *testing.T) *Trace {
	t.Helper()
	cfg := DefaultDriveConfig()
	cfg.Duration = 60
	tr, err := SynthesizeDrive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestFacadeQuickstartPath(t *testing.T) {
	sys := DefaultSystem()
	tr := shortDrive(t)
	ctrl, err := NewControllerByName("DNOR", sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(context.Background(), sys, tr, ctrl, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyOutJ <= 0 {
		t.Error("facade run harvested nothing")
	}
	if res.Scheme != "DNOR" {
		t.Error(res.Scheme)
	}
}

func TestFacadeAllControllers(t *testing.T) {
	sys := DefaultSystem()
	tr := shortDrive(t)
	for _, name := range SchemeNames() {
		ctrl, err := NewControllerByName(name, sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Simulate(context.Background(), sys, tr, ctrl, DefaultSimOptions())
		if err != nil {
			t.Fatalf("%s: %v", ctrl.Name(), err)
		}
		if res.EnergyOutJ <= 0 {
			t.Errorf("%s harvested nothing", ctrl.Name())
		}
	}
}

func TestFacadePredictors(t *testing.T) {
	sys := DefaultSystem()
	tr := shortDrive(t)
	dnor, err := SchemeByName("DNOR")
	if err != nil {
		t.Fatal(err)
	}
	for _, build := range []func() (Predictor, error){NewMLRPredictor, NewBPNNPredictor, NewSVRPredictor} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := dnor.New(sys, SchemeConfig{Predictor: p, HorizonTicks: 4, TickSeconds: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Simulate(context.Background(), sys, tr, ctrl, DefaultSimOptions()); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

func TestFacadeModuleSpec(t *testing.T) {
	if TGM199.Name != "TGM-199-1.4-0.8" {
		t.Error(TGM199.Name)
	}
	if err := TGM199.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeDefaults: the facade's defaults are the paper's Section VI
// rig, which Table I and the figures run: 100 modules on the 800 s
// drive at a 0.5 s control period.
func TestFacadeDefaults(t *testing.T) {
	if n := DefaultSystem().Modules; n != 100 {
		t.Errorf("DefaultSystem has %d modules, want 100", n)
	}
	if d := DefaultDriveConfig().Duration; d != 800 {
		t.Errorf("DefaultDriveConfig lasts %v s, want 800", d)
	}
	if tick := DefaultSimOptions().TickSeconds; tick != 0.5 {
		t.Errorf("DefaultSimOptions ticks every %v s, want 0.5", tick)
	}
}

func TestFacadeFaultsAndCharger(t *testing.T) {
	sys := DefaultSystem()
	tr := shortDrive(t)
	plan, err := NewRandomFaultPlan(sys.Modules, 10, tr.Duration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSimOptions()
	opts.FaultPlan = plan
	opts.Battery = true
	profile := DefaultChargeProfile()
	opts.ChargeProfile = &profile
	ctrl, err := NewControllerByName("INOR", sys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(context.Background(), sys, tr, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyOutJ <= 0 || res.BatteryJ <= 0 {
		t.Errorf("fault+charger run: energy %v, battery %v", res.EnergyOutJ, res.BatteryJ)
	}
	if res.AvgTEGEff <= 0 {
		t.Error("missing conversion-efficiency report")
	}
}

// TestFacadeCancellation: the facade's run entry points take ctx first
// and a cancelled context aborts them with an error wrapping ctx.Err().
func TestFacadeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := DefaultSystem()
	ctrl, err := NewControllerByName("INOR", sys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(ctx, sys, shortDrive(t), ctrl, DefaultSimOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate on a cancelled context: %v", err)
	}
	m := &ScenarioMatrix{
		MaxDurationS: 10,
		Cycles:       []scenario.CycleSpec{{Name: "nedc"}},
		Schemes:      []string{"INOR"},
	}
	if _, err := RunScenarioMatrix(ctx, m, MatrixOptions{Workers: 1}); !errors.Is(err, context.Canceled) {
		t.Errorf("RunScenarioMatrix on a cancelled context: %v", err)
	}
}
