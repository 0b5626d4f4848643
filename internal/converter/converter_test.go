package converter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLTM4607Valid(t *testing.T) {
	if err := LTM4607().Validate(); err != nil {
		t.Fatalf("reference model invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := LTM4607()
	cases := []struct {
		name   string
		mutate func(*Model)
	}{
		{"vout", func(m *Model) { m.OutputVoltage = 0 }},
		{"peak-high", func(m *Model) { m.PeakEff = 1.2 }},
		{"peak-zero", func(m *Model) { m.PeakEff = 0 }},
		{"floor-above-peak", func(m *Model) { m.FloorEff = 0.99 }},
		{"floor-negative", func(m *Model) { m.FloorEff = -0.1 }},
		{"spread", func(m *Model) { m.Spread = -1 }},
		{"range", func(m *Model) { m.MinInput = 10; m.MaxInput = 5 }},
		{"min-zero", func(m *Model) { m.MinInput = 0 }},
	}
	for _, tc := range cases {
		m := base
		tc.mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestEfficiencyPeaksAtOutputVoltage(t *testing.T) {
	m := LTM4607()
	peak := m.Efficiency(m.OutputVoltage)
	if math.Abs(peak-m.PeakEff) > 1e-12 {
		t.Errorf("η(Vout) = %v, want %v", peak, m.PeakEff)
	}
	for _, vin := range []float64{5, 8, 11, 17, 24, 33} {
		if e := m.Efficiency(vin); e > peak {
			t.Errorf("η(%v) = %v exceeds peak %v", vin, e, peak)
		}
	}
}

func TestEfficiencyZeroOutsideRange(t *testing.T) {
	m := LTM4607()
	if m.Efficiency(m.MinInput-0.1) != 0 {
		t.Error("below MinInput should be 0")
	}
	if m.Efficiency(m.MaxInput+0.1) != 0 {
		t.Error("above MaxInput should be 0")
	}
	if m.Efficiency(m.MinInput) == 0 {
		t.Error("at MinInput the converter runs")
	}
}

func TestEfficiencySymmetricInRatio(t *testing.T) {
	// η at Vout·k equals η at Vout/k (log-quadratic symmetry) as long
	// as both stay in range and above the floor.
	m := LTM4607()
	for _, k := range []float64{1.2, 1.5, 2.0} {
		hi := m.Efficiency(m.OutputVoltage * k)
		lo := m.Efficiency(m.OutputVoltage / k)
		if math.Abs(hi-lo) > 1e-12 {
			t.Errorf("asymmetric: η(×%v)=%v η(/%v)=%v", k, hi, k, lo)
		}
	}
}

func TestEfficiencyFloorApplies(t *testing.T) {
	m := LTM4607()
	m.Spread = 10 // absurdly steep
	if e := m.Efficiency(5); e != m.FloorEff {
		t.Errorf("floor not applied: %v", e)
	}
}

func TestEfficiencyBoundsProperty(t *testing.T) {
	m := LTM4607()
	f := func(vin float64) bool {
		if math.IsNaN(vin) || math.IsInf(vin, 0) {
			return true
		}
		e := m.Efficiency(math.Abs(vin))
		return e >= 0 && e <= m.PeakEff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEfficiencyWithinPeakForValidModels pins the bound the deciders'
// candidate pricing prunes with: for any validated model with finite
// parameters, Efficiency(v) ∈ [0, PeakEff] at every finite v, inside
// the input range or not (negative, zero and huge inputs included).
func TestEfficiencyWithinPeakForValidModels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	models := 0
	for models < 500 {
		peak := rng.Float64()
		minIn := rng.ExpFloat64() * 5
		m := Model{
			OutputVoltage: rng.ExpFloat64() * 20,
			PeakEff:       peak,
			Spread:        rng.ExpFloat64() * 0.5,
			FloorEff:      peak * rng.Float64(),
			MinInput:      minIn,
			MaxInput:      minIn * (1 + rng.ExpFloat64()*10),
		}
		if rng.Intn(10) == 0 {
			m.FloorEff = 0
		}
		if rng.Intn(10) == 0 {
			m.Spread = 0
		}
		if m.Validate() != nil {
			continue
		}
		models++
		for k := 0; k < 200; k++ {
			var v float64
			switch k % 4 {
			case 0: // inside the input range
				v = m.MinInput + rng.Float64()*(m.MaxInput-m.MinInput)
			case 1: // anywhere near it, including negative inputs
				v = (rng.Float64()*2 - 0.5) * 2 * m.MaxInput
			case 2: // range edges
				v = []float64{m.MinInput, m.MaxInput, m.OutputVoltage, 0}[rng.Intn(4)]
			default: // extreme magnitudes
				v = math.Ldexp(rng.NormFloat64(), rng.Intn(2000)-1000)
			}
			if e := m.Efficiency(v); !(e >= 0 && e <= m.PeakEff) {
				t.Fatalf("%+v: Efficiency(%g) = %g outside [0, %g]", m, v, e, m.PeakEff)
			}
		}
	}
}

func TestOutputPower(t *testing.T) {
	m := LTM4607()
	p := m.OutputPower(13.8, 100)
	if math.Abs(p-98) > 1e-9 {
		t.Errorf("output = %v, want 98", p)
	}
	if m.OutputPower(13.8, -5) != 0 {
		t.Error("negative input power should yield 0")
	}
	if m.OutputPower(2, 100) != 0 {
		t.Error("out-of-range input voltage should yield 0")
	}
}

func TestGroupCountWindow(t *testing.T) {
	m := LTM4607()
	// Typical group MPP voltage ~1.5 V: need ≥3 groups for 4.5 V, at
	// most 24 for 36 V.
	nmin, nmax, err := m.GroupCountWindow(1.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if nmin != 3 || nmax != 24 {
		t.Errorf("window = [%d, %d], want [3, 24]", nmin, nmax)
	}
}

func TestGroupCountWindowClampsToModules(t *testing.T) {
	m := LTM4607()
	_, nmax, err := m.GroupCountWindow(1.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nmax != 10 {
		t.Errorf("nmax = %d, want clamp to 10", nmax)
	}
}

func TestGroupCountWindowInfeasible(t *testing.T) {
	m := LTM4607()
	// Enormous group voltage: even one group exceeds MaxInput.
	if _, _, err := m.GroupCountWindow(50, 100); err == nil {
		t.Error("expected infeasible window")
	}
	if _, _, err := m.GroupCountWindow(0, 100); err == nil {
		t.Error("zero group voltage should error")
	}
	if _, _, err := m.GroupCountWindow(1.5, 0); err == nil {
		t.Error("zero max groups should error")
	}
	// Tiny group voltage but tiny module budget: nmin > maxGroups.
	if _, _, err := m.GroupCountWindow(1.5, 2); err == nil {
		t.Error("nmin above module budget should error")
	}
}

func TestWindowVoltagesInRange(t *testing.T) {
	m := LTM4607()
	for _, vg := range []float64{0.8, 1.2, 1.9, 3.0} {
		nmin, nmax, err := m.GroupCountWindow(vg, 1000)
		if err != nil {
			t.Fatalf("vg=%v: %v", vg, err)
		}
		if lo := float64(nmin) * vg; lo < m.MinInput-1e-9 {
			t.Errorf("vg=%v: stacked nmin voltage %v below MinInput", vg, lo)
		}
		if hi := float64(nmax) * vg; hi > m.MaxInput+1e-9 {
			t.Errorf("vg=%v: stacked nmax voltage %v above MaxInput", vg, hi)
		}
	}
}

// TestMaxEfficiencyMatchesDenseSampling checks MaxEfficiency against
// Efficiency sampled densely inside random sub-intervals of random
// validated models: it is never below a sample, and it is attained at
// the clamped interval ends or at OutputVoltage. The intervals straddle
// OutputVoltage, sit wholly on either side of it, reach outside
// [MinInput, MaxInput] or miss it entirely, and a share of the models
// are steep enough that FloorEff clamps.
func TestMaxEfficiencyMatchesDenseSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kinds := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		m := LTM4607()
		if trial%2 == 1 {
			m.Spread = rng.ExpFloat64() * 0.3
			m.FloorEff = m.PeakEff * rng.Float64()
			m.OutputVoltage = m.MinInput + rng.Float64()*(m.MaxInput-m.MinInput)
		}
		span := m.MaxInput * 1.5
		lo, hi := rng.Float64()*span, rng.Float64()*span
		if lo > hi {
			lo, hi = hi, lo
		}
		if trial%7 == 0 {
			lo, hi = hi, lo // empty interval
		}
		got := m.MaxEfficiency(lo, hi)
		a, b := max(lo, m.MinInput), min(hi, m.MaxInput)
		switch {
		case !(a <= b):
			kinds["outside"]++
			if got != 0 {
				t.Fatalf("%+v: MaxEfficiency(%g, %g) = %g outside the input range, want 0", m, lo, hi, got)
			}
			continue
		case a <= m.OutputVoltage && m.OutputVoltage <= b:
			kinds["straddle"]++
		default:
			kinds["one-sided"]++
		}
		attained := max(m.Efficiency(a), m.Efficiency(b))
		if a <= m.OutputVoltage && m.OutputVoltage <= b {
			attained = max(attained, m.Efficiency(m.OutputVoltage))
		}
		if got != attained {
			t.Fatalf("%+v: MaxEfficiency(%g, %g) = %g, not attained (%g)", m, lo, hi, got, attained)
		}
		const samples = 1000
		for k := 0; k <= samples; k++ {
			v := min(lo+(hi-lo)*float64(k)/samples, hi)
			e := m.Efficiency(v)
			if e == m.FloorEff && e < m.PeakEff {
				kinds["floor"]++
			}
			if e > got {
				t.Fatalf("%+v: Efficiency(%g) = %g above MaxEfficiency(%g, %g) = %g", m, v, e, lo, hi, got)
			}
		}
	}
	for _, k := range []string{"outside", "straddle", "one-sided", "floor"} {
		if kinds[k] == 0 {
			t.Errorf("no %s interval exercised: %v", k, kinds)
		}
	}
}
