package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func validConditions() Conditions {
	return Conditions{
		CoolantInletC:  92,
		CoolantFlowKgS: 0.12,
		AirInletC:      25,
		AirFlowKgS:     0.9,
	}
}

func TestFluidValidate(t *testing.T) {
	if err := Coolant50Glycol.Validate(); err != nil {
		t.Errorf("default coolant invalid: %v", err)
	}
	if err := (Fluid{Name: "bad", Cp: -1, Density: 1}).Validate(); err == nil {
		t.Error("negative cp should be rejected")
	}
	if err := (Fluid{Name: "bad", Cp: 1, Density: 0}).Validate(); err == nil {
		t.Error("zero density should be rejected")
	}
}

// water is pure water around 90 °C, a reference fluid for the tests.
var water = Fluid{Name: "water", Cp: 4205, Density: 965}

func TestCapacityRate(t *testing.T) {
	got := water.CapacityRate(2)
	if math.Abs(got-2*water.Cp) > 1e-9 {
		t.Errorf("capacity rate = %v", got)
	}
}

func TestNTUPanicsOnZeroCmin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NTU(100, 0)
}

func TestEffectivenessLimits(t *testing.T) {
	for _, arr := range []FlowArrangement{CrossFlowBothUnmixed, CrossFlowCmaxMixed, CounterFlow, ParallelFlow} {
		// NTU = 0 → ε = 0.
		e, err := Effectiveness(arr, 0, 0.5)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		if math.Abs(e) > 1e-12 {
			t.Errorf("%v: ε(0) = %v, want 0", arr, e)
		}
		// Large NTU, cr → 0 → ε → 1.
		e, err = Effectiveness(arr, 50, 0)
		if err != nil {
			t.Fatalf("%v: %v", arr, err)
		}
		if math.Abs(e-1) > 1e-9 {
			t.Errorf("%v: ε(∞, cr=0) = %v, want 1", arr, e)
		}
	}
}

func TestEffectivenessBoundsProperty(t *testing.T) {
	arrs := []FlowArrangement{CrossFlowBothUnmixed, CrossFlowCmaxMixed, CounterFlow, ParallelFlow}
	f := func(ntuRaw, crRaw float64) bool {
		ntu := math.Mod(math.Abs(ntuRaw), 20)
		cr := math.Mod(math.Abs(crRaw), 1)
		if math.IsNaN(ntu) || math.IsNaN(cr) {
			return true
		}
		for _, arr := range arrs {
			e, err := Effectiveness(arr, ntu, cr)
			if err != nil || e < -1e-12 || e > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCounterflowBeatsParallelProperty(t *testing.T) {
	// Counterflow effectiveness dominates parallel flow for all NTU, cr.
	for _, ntu := range []float64{0.2, 0.5, 1, 2, 5} {
		for _, cr := range []float64{0.1, 0.5, 0.9, 1.0} {
			ec, err1 := Effectiveness(CounterFlow, ntu, cr)
			ep, err2 := Effectiveness(ParallelFlow, ntu, cr)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if ec < ep-1e-12 {
				t.Errorf("NTU=%v cr=%v: counter %v < parallel %v", ntu, cr, ec, ep)
			}
		}
	}
}

func TestEffectivenessCounterflowCrOne(t *testing.T) {
	e, err := Effectiveness(CounterFlow, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2.0/3.0) > 1e-12 {
		t.Errorf("ε = %v, want 2/3", e)
	}
}

func TestEffectivenessRejectsBadInputs(t *testing.T) {
	if _, err := Effectiveness(CounterFlow, -1, 0.5); err == nil {
		t.Error("negative NTU should error")
	}
	if _, err := Effectiveness(CounterFlow, 1, 1.5); err == nil {
		t.Error("cr > 1 should error")
	}
	if _, err := Effectiveness(FlowArrangement(99), 1, 0.5); err == nil {
		t.Error("unknown arrangement should error")
	}
}

func TestFlowArrangementString(t *testing.T) {
	if CrossFlowBothUnmixed.String() != "crossflow-both-unmixed" {
		t.Error(CrossFlowBothUnmixed.String())
	}
	if FlowArrangement(42).String() == "" {
		t.Error("unknown arrangement should still format")
	}
}

func TestRadiatorValidate(t *testing.T) {
	r := DefaultRadiator()
	if err := r.Validate(); err != nil {
		t.Fatalf("default radiator invalid: %v", err)
	}
	bad := &Radiator{PathLength: 0, UAPerLength: 10}
	if err := bad.Validate(); err == nil {
		t.Error("zero length should be rejected")
	}
	bad2 := &Radiator{PathLength: 1, UAPerLength: 0}
	if err := bad2.Validate(); err == nil {
		t.Error("zero UA should be rejected")
	}
}

func TestValidateFillsDefaultFluids(t *testing.T) {
	r := &Radiator{PathLength: 1, UAPerLength: 10}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Coolant.Name != Coolant50Glycol.Name || r.AirSide.Name != Air.Name {
		t.Errorf("defaults not applied: %+v", r)
	}
}

func TestConditionsValidate(t *testing.T) {
	c := validConditions()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c2 := c
	c2.CoolantFlowKgS = 0
	if err := c2.Validate(); err == nil {
		t.Error("zero coolant flow should be rejected")
	}
	c3 := c
	c3.AirFlowKgS = -1
	if err := c3.Validate(); err == nil {
		t.Error("negative air flow should be rejected")
	}
	c4 := c
	c4.CoolantInletC = 10
	if err := c4.Validate(); err == nil {
		t.Error("coolant below ambient should be rejected")
	}
}

func TestDistributionMonotoneDecay(t *testing.T) {
	dist, err := DefaultRadiator().Solve(validConditions())
	if err != nil {
		t.Fatal(err)
	}
	prev := dist.TempAt(0)
	for d := 0.1; d <= dist.L; d += 0.1 {
		cur := dist.TempAt(d)
		if cur > prev+1e-12 {
			t.Fatalf("temperature increased along path at d=%v: %v > %v", d, cur, prev)
		}
		prev = cur
	}
}

func TestDistributionEntranceAndAsymptote(t *testing.T) {
	c := validConditions()
	dist, err := DefaultRadiator().Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.TempAt(0)-c.CoolantInletC) > 1e-9 {
		t.Errorf("T(0) = %v, want inlet %v", dist.TempAt(0), c.CoolantInletC)
	}
	// Everywhere above the mean air temperature.
	for d := 0.0; d <= dist.L; d += 0.25 {
		if dist.TempAt(d) < dist.TcA-1e-9 {
			t.Errorf("T(%v) = %v below Tc,a %v", d, dist.TempAt(d), dist.TcA)
		}
	}
	// Outlet must stay above ambient but below inlet.
	if out := dist.OutletC(); out <= c.AirInletC || out >= c.CoolantInletC {
		t.Errorf("outlet %v outside (ambient, inlet)", out)
	}
}

func TestDistributionClampsOutsidePath(t *testing.T) {
	dist, err := DefaultRadiator().Solve(validConditions())
	if err != nil {
		t.Fatal(err)
	}
	if dist.TempAt(-5) != dist.TempAt(0) {
		t.Error("negative d should clamp to entrance")
	}
	if dist.TempAt(100) != dist.TempAt(dist.L) {
		t.Error("d beyond path should clamp to exit")
	}
}

func TestModuleTemps(t *testing.T) {
	r := DefaultRadiator()
	temps, err := r.ModuleTemps(validConditions(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 100 {
		t.Fatalf("got %d temps", len(temps))
	}
	for i := 1; i < len(temps); i++ {
		if temps[i] > temps[i-1]+1e-12 {
			t.Fatalf("module temps not monotone at %d", i)
		}
	}
	// Entrance modules should be close to the inlet; exhaust modules
	// meaningfully cooler (the paper's premise for reconfiguration).
	if temps[0] < 80 {
		t.Errorf("entrance module only %v°C", temps[0])
	}
	if temps[99] > temps[0]-15 {
		t.Errorf("too little decay: first %v°C last %v°C", temps[0], temps[99])
	}
}

func TestModuleTempsErrors(t *testing.T) {
	r := DefaultRadiator()
	if _, err := r.ModuleTemps(validConditions(), 0); err == nil {
		t.Error("zero modules should error")
	}
	bad := validConditions()
	bad.CoolantFlowKgS = 0
	if _, err := r.ModuleTemps(bad, 10); err == nil {
		t.Error("invalid conditions should propagate")
	}
}

func TestHeatDutyPositiveAndBounded(t *testing.T) {
	r := DefaultRadiator()
	c := validConditions()
	q, err := r.HeatDuty(c)
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 {
		t.Fatalf("heat duty %v not positive", q)
	}
	// Thermodynamic bound: q ≤ Cmin·ΔTmax.
	ch := r.Coolant.CapacityRate(c.CoolantFlowKgS)
	cc := r.AirSide.CapacityRate(c.AirFlowKgS)
	cmin := math.Min(ch, cc)
	if q > cmin*(c.CoolantInletC-c.AirInletC)+1e-9 {
		t.Errorf("heat duty %v exceeds thermodynamic bound", q)
	}
}

func TestHeatDutyIncreasesWithFlow(t *testing.T) {
	r := DefaultRadiator()
	c := validConditions()
	q1, err := r.HeatDuty(c)
	if err != nil {
		t.Fatal(err)
	}
	c.CoolantFlowKgS *= 2
	c.AirFlowKgS *= 2
	q2, err := r.HeatDuty(c)
	if err != nil {
		t.Fatal(err)
	}
	if q2 <= q1 {
		t.Errorf("doubling flows reduced duty: %v -> %v", q1, q2)
	}
}

func TestSolveFlowDependenceOfDecay(t *testing.T) {
	// Higher coolant flow → slower decay → flatter profile (hotter exit).
	r := DefaultRadiator()
	c := validConditions()
	d1, err := r.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	c.CoolantFlowKgS *= 3
	d2, err := r.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	if d2.OutletC() <= d1.OutletC() {
		t.Errorf("tripled flow should raise outlet temp: %v -> %v", d1.OutletC(), d2.OutletC())
	}
}

func TestSolvePropagatesValidation(t *testing.T) {
	r := &Radiator{PathLength: -1, UAPerLength: 10}
	if _, err := r.Solve(validConditions()); err == nil {
		t.Error("invalid radiator should error")
	}
	r2 := DefaultRadiator()
	bad := validConditions()
	bad.AirFlowKgS = 0
	if _, err := r2.Solve(bad); err == nil {
		t.Error("invalid conditions should error")
	}
}

func TestSolveEqualTemperaturesGiveFlatProfile(t *testing.T) {
	r := DefaultRadiator()
	c := validConditions()
	c.CoolantInletC = c.AirInletC // no driving ΔT
	dist, err := r.Solve(c)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0.0; d <= dist.L; d += 0.5 {
		if math.Abs(dist.TempAt(d)-c.AirInletC) > 1e-9 {
			t.Fatalf("profile not flat at d=%v: %v", d, dist.TempAt(d))
		}
	}
}

// TestModuleTempsIntoMatches proves the buffer-reusing form equals
// ModuleTemps bit for bit, including when the destination carries stale
// values or excess capacity.
func TestModuleTempsIntoMatches(t *testing.T) {
	r := DefaultRadiator()
	c := Conditions{CoolantInletC: 95, CoolantFlowKgS: 0.12, AirInletC: 25, AirFlowKgS: 0.8}
	want, err := r.ModuleTemps(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 7, 150)
	for i := range buf {
		buf[i] = -999
	}
	got, err := r.ModuleTempsInto(buf, c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d vs %d temps", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("module %d: %g vs %g", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("ModuleTempsInto did not reuse the provided backing array")
	}
	if _, err := r.ModuleTempsInto(nil, c, 0); err == nil {
		t.Fatal("accepted non-positive module count")
	}
}
