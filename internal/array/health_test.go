package array

import (
	"math"
	"testing"

	"tegrecon/internal/teg"
)

func uniformOps(n int, dT float64) []teg.OperatingPoint {
	ops := make([]teg.OperatingPoint, n)
	for i := range ops {
		ops[i] = teg.OperatingPoint{DeltaT: dT, HotC: 25 + dT}
	}
	return ops
}

// failedCount returns the number of non-healthy modules of a.
func failedCount(a *Array) int {
	n := 0
	for i := range a.Ops {
		if a.healthOf(i) != Healthy {
			n++
		}
	}
	return n
}

// efficiency prices (cfg, iOut) as the simulator does: the equivalent
// and module currents first, then ConversionEfficiencyAt.
func efficiency(t *testing.T, a *Array, cfg Config, iOut float64) (float64, error) {
	t.Helper()
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	currents, err := moduleCurrents(a, cfg, iOut)
	if err != nil {
		t.Fatal(err)
	}
	return a.ConversionEfficiencyAt(a.norton(), eq, iOut, currents)
}

func TestNewWithHealthValidation(t *testing.T) {
	ops := uniformOps(4, 50)
	if _, err := NewWithHealth(teg.TGM199, ops, []ModuleHealth{Healthy}); err == nil {
		t.Error("length mismatch should error")
	}
	a, err := NewWithHealth(teg.TGM199, ops, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := failedCount(a); n != 0 {
		t.Errorf("nil health should mean all healthy, got %d failed", n)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[ModuleHealth]string{
		Healthy: "healthy", FailedOpen: "failed-open", FailedShort: "failed-short",
	} {
		if h.String() != want {
			t.Errorf("%d → %q", h, h.String())
		}
	}
	if ModuleHealth(9).String() == "" {
		t.Error("unknown health should still format")
	}
}

func TestFailedOpenInParallelGroupDegradesGracefully(t *testing.T) {
	// 5 identical modules in parallel; one fails open → group behaves
	// like 4 modules: same Voc, R/4.
	ops := uniformOps(5, 50)
	health := []ModuleHealth{Healthy, Healthy, FailedOpen, Healthy, Healthy}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equivalent(AllParallel(5))
	if err != nil {
		t.Fatal(err)
	}
	wantR := a.Spec.R(ops[0]) / 4
	if math.Abs(eq.R-wantR) > 1e-12 {
		t.Errorf("R = %v, want %v", eq.R, wantR)
	}
	if eq.Broken {
		t.Error("group with survivors should not be broken")
	}
	if n := failedCount(a); n != 1 {
		t.Errorf("failed count = %d", n)
	}
}

func TestAllOpenGroupBreaksChain(t *testing.T) {
	ops := uniformOps(4, 50)
	// Groups [0,1] and [2,3]; both members of group 2 fail open.
	health := []ModuleHealth{Healthy, Healthy, FailedOpen, FailedOpen}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := NewConfig(4, []int{0, 2})
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Broken {
		t.Fatal("chain should be broken")
	}
	if eq.PowerAt(1) != 0 {
		t.Errorf("broken chain delivers %v W", eq.PowerAt(1))
	}
	currents, err := moduleCurrents(a, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range currents {
		if c != 0 {
			t.Errorf("module %d carries %v A through a broken chain", i, c)
		}
	}
}

func TestFailedShortDragsGroupVoltage(t *testing.T) {
	ops := uniformOps(3, 60)
	health := []ModuleHealth{Healthy, FailedShort, Healthy}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equivalent(AllParallel(3))
	if err != nil {
		t.Fatal(err)
	}
	// The 5 mΩ short dominates the ~3 Ω healthy legs: group Voc ≈ 0.
	if eq.Voc > 0.02 {
		t.Errorf("shorted group Voc = %v, want ≈0", eq.Voc)
	}
	if eq.Broken {
		t.Error("short is not a broken chain")
	}
}

func TestFailedModulesExcludedFromIdealAndMPP(t *testing.T) {
	ops := uniformOps(4, 50)
	healthy, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewWithHealth(teg.TGM199, ops, []ModuleHealth{Healthy, FailedOpen, FailedShort, Healthy})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := faulty.norton().IdealPower(), healthy.norton().IdealPower()/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("ideal power %v, want %v", got, want)
	}
	currents := faulty.norton().MPPCurrentsInto(nil)
	if currents[1] != 0 || currents[2] != 0 {
		t.Errorf("failed modules have MPP currents %v", currents)
	}
	if currents[0] == 0 || currents[3] == 0 {
		t.Error("healthy modules lost their MPP currents")
	}
}

func TestKirchhoffWithFaults(t *testing.T) {
	// Group currents must still sum to the output current with faults
	// present (the short carries negative current, the open none).
	ops := uniformOps(6, 55)
	health := []ModuleHealth{Healthy, FailedOpen, Healthy, Healthy, FailedShort, Healthy}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := NewConfig(6, []int{0, 3})
	for _, iOut := range []float64{0, 0.3, 0.8} {
		currents, err := moduleCurrents(a, cfg, iOut)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < cfg.Groups(); j++ {
			lo, hi := cfg.GroupBounds(j)
			sum := 0.0
			for m := lo; m < hi; m++ {
				sum += currents[m]
			}
			if math.Abs(sum-iOut) > 1e-9 {
				t.Fatalf("group %d: ΣI = %v, want %v", j, sum, iOut)
			}
		}
	}
}

func TestEnergyConservationWithFaults(t *testing.T) {
	ops := uniformOps(8, 50)
	health := []ModuleHealth{Healthy, Healthy, FailedOpen, Healthy, Healthy, FailedShort, Healthy, Healthy}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := NewConfig(8, []int{0, 4})
	for _, iOut := range []float64{0.1, 0.5} {
		if rel := conservation(t, a, cfg, iOut); rel > 1e-9 {
			t.Errorf("conservation violated with faults at I=%v: %v", iOut, rel)
		}
	}
}

func TestBrokenChainConservationTrivial(t *testing.T) {
	ops := uniformOps(2, 50)
	a, err := NewWithHealth(teg.TGM199, ops, []ModuleHealth{FailedOpen, FailedOpen})
	if err != nil {
		t.Fatal(err)
	}
	if rel := conservation(t, a, AllParallel(2), 1); rel != 0 {
		t.Errorf("broken chain check = %v", rel)
	}
}

func TestThermalInputOpenCircuitIsConductionOnly(t *testing.T) {
	ops := uniformOps(4, 60)
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	currents, err := moduleCurrents(a, AllParallel(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := a.thermalInput(a.norton(), currents)
	want := 4 * teg.TGM199.ThermalConductanceWK() * 60
	if math.Abs(q-want) > 1e-9 {
		t.Errorf("open-circuit heat %v, want %v", q, want)
	}
}

func TestConversionEfficiencyRealistic(t *testing.T) {
	ops := uniformOps(10, 60)
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Uniform(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eta, err := efficiency(t, a, cfg, eq.MPP().Current)
	if err != nil {
		t.Fatal(err)
	}
	// Bi₂Te₃ at ΔT = 60 K: a couple of percent.
	if eta < 0.01 || eta > 0.05 {
		t.Errorf("conversion efficiency %v outside [1%%, 5%%]", eta)
	}
	// And the array never beats a single module's matched-load value by
	// more than numerical fuzz (identical modules, balanced groups).
	mEta, err := teg.TGM199.Efficiency(ops[0], teg.TGM199.MaxPowerPoint(ops[0]).Current)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eta-mEta) > 1e-9 {
		t.Errorf("array efficiency %v differs from module efficiency %v on uniform array", eta, mEta)
	}
}

func TestConversionEfficiencyWithFaults(t *testing.T) {
	ops := uniformOps(6, 60)
	health := []ModuleHealth{Healthy, Healthy, FailedOpen, Healthy, FailedShort, Healthy}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := NewConfig(6, []int{0, 3})
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthyArr, _ := New(teg.TGM199, ops)
	hEq, _ := healthyArr.Equivalent(cfg)
	etaF, err := efficiency(t, a, cfg, eq.MPP().Current)
	if err != nil {
		t.Fatal(err)
	}
	etaH, err := efficiency(t, healthyArr, cfg, hEq.MPP().Current)
	if err != nil {
		t.Fatal(err)
	}
	if etaF <= 0 {
		t.Fatalf("faulted efficiency %v", etaF)
	}
	if etaF >= etaH {
		t.Errorf("faults should reduce efficiency: %v vs %v", etaF, etaH)
	}
}

func TestConversionEfficiencyEdgeCases(t *testing.T) {
	ops := uniformOps(2, 0) // no ΔT anywhere
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	eta, err := efficiency(t, a, AllParallel(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0 {
		t.Errorf("dead array efficiency %v", eta)
	}
	if _, err := efficiency(t, a, AllParallel(2), -1); err == nil {
		t.Error("negative current should error")
	}
	broken, _ := NewWithHealth(teg.TGM199, uniformOps(2, 50), []ModuleHealth{FailedOpen, FailedOpen})
	eta, err = efficiency(t, broken, AllParallel(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0 {
		t.Errorf("broken-chain efficiency %v", eta)
	}
}
