package teg

import (
	"math"
	"testing"
	"testing/quick"
)

func op(dT float64) OperatingPoint {
	return OperatingPoint{DeltaT: dT, HotC: 25 + dT}
}

func TestTGM199Validate(t *testing.T) {
	if err := TGM199.Validate(); err != nil {
		t.Fatalf("reference module invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := TGM199
	cases := []struct {
		name   string
		mutate func(*ModuleSpec)
	}{
		{"couples", func(s *ModuleSpec) { s.Couples = 0 }},
		{"seebeck", func(s *ModuleSpec) { s.SeebeckPerCouple = -1 }},
		{"resistance", func(s *ModuleSpec) { s.InternalResistance = 0 }},
		{"tempco", func(s *ModuleSpec) { s.ResistanceTempCoeff = -0.1 }},
		{"maxdt", func(s *ModuleSpec) { s.MaxDeltaT = 0 }},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestModuleSeebeckScale(t *testing.T) {
	// 199 couples at 300 µV/K → 0.0597 V/K module coefficient.
	got := TGM199.ModuleSeebeck()
	if math.Abs(got-0.0597) > 0.001 {
		t.Errorf("module Seebeck = %v V/K, want ≈0.0597", got)
	}
}

func TestOpenCircuitVoltageLinearity(t *testing.T) {
	f := func(dT float64) bool {
		if math.IsNaN(dT) || math.Abs(dT) > 1e6 {
			return true
		}
		v1 := TGM199.OpenCircuitVoltage(dT)
		v2 := TGM199.OpenCircuitVoltage(2 * dT)
		return math.Abs(v2-2*v1) < 1e-9*(1+math.Abs(v1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocKnownPoint(t *testing.T) {
	// ΔT = 100 K → Voc ≈ 6.0 V for this module.
	v := TGM199.OpenCircuitVoltage(100)
	if math.Abs(v-6.0) > 0.1 {
		t.Errorf("Voc(100K) = %v, want ≈6.0", v)
	}
}

func TestResistanceTemperatureDependence(t *testing.T) {
	rRef := TGM199.Resistance(TGM199.ReferenceHotC)
	if math.Abs(rRef-TGM199.InternalResistance) > 1e-12 {
		t.Errorf("R at reference = %v", rRef)
	}
	rHot := TGM199.Resistance(TGM199.ReferenceHotC + 50)
	if rHot <= rRef {
		t.Errorf("resistance should rise with temperature: %v -> %v", rRef, rHot)
	}
	// 0.4%/K · 50 K = +20%.
	if math.Abs(rHot/rRef-1.2) > 1e-9 {
		t.Errorf("R ratio = %v, want 1.2", rHot/rRef)
	}
}

func TestResistanceFloor(t *testing.T) {
	r := TGM199.Resistance(-1e6)
	if r <= 0 {
		t.Fatalf("resistance must stay positive, got %v", r)
	}
	if r != 0.05*TGM199.InternalResistance {
		t.Errorf("floor = %v", r)
	}
}

func TestMPPAgainstMatchedLoad(t *testing.T) {
	for _, dT := range []float64{10, 30, 60, 90, 150} {
		if rel := TGM199.MatchedLoadEquivalence(op(dT)); rel > 1e-12 {
			t.Errorf("ΔT=%v: matched-load power differs from MPP by %v", dT, rel)
		}
	}
}

func TestMPPIsActuallyMaximal(t *testing.T) {
	// Property: no current on the I–V curve beats the analytic MPP.
	for _, dT := range []float64{20, 60, 120} {
		o := op(dT)
		mpp := TGM199.MaxPowerPoint(o)
		isc := TGM199.ShortCircuitCurrent(o)
		for k := 0; k <= 200; k++ {
			i := isc * float64(k) / 200
			if p := TGM199.PowerAtCurrent(o, i); p > mpp.Power+1e-9 {
				t.Fatalf("ΔT=%v: P(%v A)=%v exceeds MPP %v", dT, i, p, mpp.Power)
			}
		}
	}
}

func TestMPPRelationships(t *testing.T) {
	o := op(60)
	mpp := TGM199.MaxPowerPoint(o)
	voc := TGM199.Voc(o)
	if math.Abs(mpp.Voltage-voc/2) > 1e-12 {
		t.Errorf("MPP voltage %v != Voc/2 %v", mpp.Voltage, voc/2)
	}
	if math.Abs(mpp.Power-mpp.Voltage*mpp.Current) > 1e-12 {
		t.Errorf("P != V·I at MPP")
	}
	if math.Abs(mpp.Current-TGM199.ShortCircuitCurrent(o)/2) > 1e-12 {
		t.Errorf("MPP current %v != Isc/2", mpp.Current)
	}
}

func TestMPPQuadraticInDeltaT(t *testing.T) {
	// With resistance held fixed (same hot side), P_MPP ∝ ΔT².
	s := TGM199
	s.ResistanceTempCoeff = 0
	p1 := s.MaxPowerPoint(OperatingPoint{DeltaT: 30, HotC: 50}).Power
	p2 := s.MaxPowerPoint(OperatingPoint{DeltaT: 60, HotC: 50}).Power
	if math.Abs(p2/p1-4) > 1e-9 {
		t.Errorf("P(2ΔT)/P(ΔT) = %v, want 4", p2/p1)
	}
}

func TestPowerAtLoadErrors(t *testing.T) {
	if _, err := TGM199.PowerAtLoad(op(50), -1); err == nil {
		t.Error("negative load should error")
	}
	p, err := TGM199.PowerAtLoad(op(50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("short circuit delivers %v W into 0 Ω", p)
	}
}

func TestPowerScaleMatchesDatasheet(t *testing.T) {
	// TGM-199-1.4-0.8 delivers roughly 5–6 W at ΔT = 150 K.
	p := TGM199.MaxPowerPoint(op(150)).Power
	if p < 4 || p > 8 {
		t.Errorf("P_MPP(150K) = %v W, outside datasheet ballpark [4, 8]", p)
	}
	// And roughly 0.9–1.2 W at ΔT = 60 K.
	p60 := TGM199.MaxPowerPoint(op(60)).Power
	if p60 < 0.7 || p60 > 1.6 {
		t.Errorf("P_MPP(60K) = %v W, outside ballpark", p60)
	}
}

func TestCurveShape(t *testing.T) {
	pts, err := TGM199.Curve(op(60), 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 101 {
		t.Fatalf("%d points", len(pts))
	}
	// Endpoints: open circuit and short circuit.
	if pts[0].Current != 0 || math.Abs(pts[0].Voltage-TGM199.Voc(op(60))) > 1e-12 {
		t.Errorf("open-circuit endpoint wrong: %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if math.Abs(last.Voltage) > 1e-9 || math.Abs(last.Power) > 1e-9 {
		t.Errorf("short-circuit endpoint wrong: %+v", last)
	}
	// Voltage monotone decreasing in current; power unimodal with peak
	// at the midpoint sample.
	peak, peakIdx := -1.0, -1
	for i, p := range pts {
		if i > 0 && p.Voltage >= pts[i-1].Voltage {
			t.Fatalf("I–V not monotone at %d", i)
		}
		if p.Power > peak {
			peak, peakIdx = p.Power, i
		}
	}
	if peakIdx != 50 {
		t.Errorf("P–V peak at sample %d, want 50", peakIdx)
	}
	if math.Abs(peak-TGM199.MaxPowerPoint(op(60)).Power) > 1e-9 {
		t.Errorf("curve peak %v != MPP %v", peak, TGM199.MaxPowerPoint(op(60)).Power)
	}
}

func TestCurveErrors(t *testing.T) {
	if _, err := TGM199.Curve(op(60), 1); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := TGM199.Curve(op(-5), 10); err == nil {
		t.Error("negative ΔT should error")
	}
	if _, err := TGM199.Curve(op(1e4), 10); err == nil {
		t.Error("ΔT beyond MaxDeltaT should error")
	}
	bad := TGM199
	bad.Couples = 0
	if _, err := bad.Curve(op(60), 10); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestCurveFamilyFig1(t *testing.T) {
	dts := []float64{30, 60, 90, 120, 150, 180}
	fam, err := TGM199.CurveFamily(25, dts, 51)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != len(dts) {
		t.Fatalf("family size %d", len(fam))
	}
	// MPP power strictly increases with ΔT across the family.
	prev := -1.0
	for _, dT := range dts {
		peak := 0.0
		for _, p := range fam[dT] {
			if p.Power > peak {
				peak = p.Power
			}
		}
		if peak <= prev {
			t.Fatalf("MPP not increasing at ΔT=%v: %v <= %v", dT, peak, prev)
		}
		prev = peak
	}
}

func TestCurveFamilyPropagatesError(t *testing.T) {
	if _, err := TGM199.CurveFamily(25, []float64{-10}, 10); err == nil {
		t.Error("invalid ΔT in family should error")
	}
}

func TestOpsFromTemps(t *testing.T) {
	ops := OpsFromTempsInto(nil, []float64{90, 50, 20}, 25)
	if len(ops) != 3 {
		t.Fatalf("%d ops", len(ops))
	}
	if ops[0].DeltaT != 65 || ops[0].HotC != 90 {
		t.Errorf("ops[0] = %+v", ops[0])
	}
	// Hot side below ambient clamps ΔT to zero.
	if ops[2].DeltaT != 0 {
		t.Errorf("ops[2].DeltaT = %v, want 0", ops[2].DeltaT)
	}
}

func TestShortCircuitCurrent(t *testing.T) {
	o := op(60)
	isc := TGM199.ShortCircuitCurrent(o)
	if math.Abs(TGM199.TerminalVoltage(o, isc)) > 1e-12 {
		t.Errorf("V(Isc) = %v, want 0", TGM199.TerminalVoltage(o, isc))
	}
	if math.Abs(isc-2*TGM199.MaxPowerPoint(o).Current) > 1e-12 {
		t.Error("Isc should be twice the MPP current")
	}
}

func TestPowerAtCurrentNegativeBeyondIsc(t *testing.T) {
	o := op(60)
	isc := TGM199.ShortCircuitCurrent(o)
	if p := TGM199.PowerAtCurrent(o, 1.5*isc); p >= 0 {
		t.Errorf("driving past Isc should absorb power, got %v", p)
	}
}
