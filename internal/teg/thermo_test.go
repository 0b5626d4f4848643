package teg

import (
	"math"
	"testing"
)

func TestThermalConductanceExplicitAndDerived(t *testing.T) {
	if got := TGM199.ThermalConductanceWK(); got != 0.53 {
		t.Errorf("explicit conductance = %v", got)
	}
	derived := TGM199
	derived.ThermalConductance = 0
	k := derived.ThermalConductanceWK()
	if k <= 0 {
		t.Fatalf("derived conductance %v", k)
	}
	// The derivation targets ZT ≈ 0.7 at 300 K mean temperature.
	op := OperatingPoint{DeltaT: 0, HotC: 26.85} // 300 K
	derived.ResistanceTempCoeff = 0
	derived.ReferenceHotC = 26.85
	if zt := derived.FigureOfMerit(op); math.Abs(zt-0.7) > 0.02 {
		t.Errorf("derived ZT = %v, want ≈0.7", zt)
	}
}

func TestFigureOfMeritBallpark(t *testing.T) {
	zt := TGM199.FigureOfMerit(op(60))
	if zt < 0.3 || zt > 1.2 {
		t.Errorf("ZT = %v outside Bi₂Te₃ ballpark", zt)
	}
}

func TestHeatInputComponents(t *testing.T) {
	o := op(60)
	// Open circuit: pure conduction.
	q0, err := TGM199.HeatInput(o, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := TGM199.ThermalConductanceWK() * 60
	if math.Abs(q0-want) > 1e-12 {
		t.Errorf("open-circuit heat %v, want %v", q0, want)
	}
	// With current flowing, Peltier pumping adds heat draw.
	i := TGM199.MaxPowerPoint(o).Current
	qi, err := TGM199.HeatInput(o, i)
	if err != nil {
		t.Fatal(err)
	}
	if qi <= q0 {
		t.Errorf("heat at MPP %v not above open-circuit %v", qi, q0)
	}
}

func TestHeatInputRejectsNegativeCurrent(t *testing.T) {
	if _, err := TGM199.HeatInput(op(60), -1); err == nil {
		t.Error("negative current should error")
	}
	if _, err := TGM199.Efficiency(op(60), -1); err == nil {
		t.Error("negative current should error")
	}
}

func TestEfficiencyBelowCarnot(t *testing.T) {
	for _, dT := range []float64{20, 60, 120, 180} {
		o := op(dT)
		carnot := TGM199.CarnotEfficiency(o)
		isc := TGM199.ShortCircuitCurrent(o)
		for k := 1; k < 20; k++ {
			i := isc * float64(k) / 20
			eta, err := TGM199.Efficiency(o, i)
			if err != nil {
				t.Fatal(err)
			}
			if eta < 0 || eta >= carnot {
				t.Fatalf("ΔT=%v I=%v: η=%v outside [0, Carnot=%v)", dT, i, eta, carnot)
			}
		}
	}
}

func TestEfficiencyRealisticScale(t *testing.T) {
	// Bi₂Te₃ at ΔT = 60 K converts at roughly 2–3%.
	o := op(60)
	eta, err := TGM199.Efficiency(o, TGM199.MaxPowerPoint(o).Current)
	if err != nil {
		t.Fatal(err)
	}
	if eta < 0.015 || eta > 0.04 {
		t.Errorf("η(MPP, 60K) = %v outside [1.5%%, 4%%]", eta)
	}
}

func TestEfficiencyGrowsWithDeltaT(t *testing.T) {
	prev := -1.0
	for _, dT := range []float64{20, 60, 100, 140, 180} {
		o := op(dT)
		eta, err := TGM199.Efficiency(o, TGM199.MaxPowerPoint(o).Current)
		if err != nil {
			t.Fatal(err)
		}
		if eta <= prev {
			t.Fatalf("η(MPP) not increasing at ΔT=%v: %v after %v", dT, eta, prev)
		}
		prev = eta
	}
}

func TestEfficiencyZeroCases(t *testing.T) {
	// Zero ΔT: no heat flows at zero current → efficiency 0.
	eta, err := TGM199.Efficiency(OperatingPoint{DeltaT: 0, HotC: 25}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0 {
		t.Errorf("η at zero ΔT, zero I = %v", eta)
	}
	if c := TGM199.CarnotEfficiency(OperatingPoint{DeltaT: 0, HotC: 25}); c != 0 {
		t.Errorf("Carnot at zero ΔT = %v", c)
	}
}

func TestEfficiencyZeroPastShortCircuit(t *testing.T) {
	o := op(60)
	isc := TGM199.ShortCircuitCurrent(o)
	eta, err := TGM199.Efficiency(o, 1.5*isc)
	if err != nil {
		t.Fatal(err)
	}
	if eta != 0 {
		t.Errorf("η past Isc = %v, want 0 (absorbing)", eta)
	}
}
