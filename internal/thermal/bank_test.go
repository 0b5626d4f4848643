package thermal

import (
	"math"
	"testing"
)

func testBank(paths int, m float64) *Bank {
	return &Bank{Radiator: DefaultRadiator(), Paths: paths, Maldistribution: m}
}

func TestBankValidate(t *testing.T) {
	if err := testBank(12, 0.3).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Bank{
		{Radiator: nil, Paths: 4},
		{Radiator: DefaultRadiator(), Paths: 0},
		{Radiator: DefaultRadiator(), Paths: 4, Maldistribution: -0.1},
		{Radiator: DefaultRadiator(), Paths: 4, Maldistribution: 1},
		{Radiator: &Radiator{PathLength: -1, UAPerLength: 1}, Paths: 4},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestFlowWeightsMeanOne(t *testing.T) {
	for _, m := range []float64{0, 0.2, 0.5, 0.9} {
		for _, paths := range []int{1, 2, 5, 12, 40} {
			w, err := testBank(paths, m).FlowWeights()
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, v := range w {
				sum += v
				if v <= 0 {
					t.Fatalf("m=%v paths=%d: non-positive weight %v", m, paths, v)
				}
			}
			if math.Abs(sum/float64(paths)-1) > 1e-12 {
				t.Errorf("m=%v paths=%d: mean weight %v", m, paths, sum/float64(paths))
			}
		}
	}
}

func TestFlowWeightsCentrePeaked(t *testing.T) {
	w, err := testBank(11, 0.5).FlowWeights()
	if err != nil {
		t.Fatal(err)
	}
	centre, edge := w[5], w[0]
	if centre <= edge {
		t.Errorf("centre weight %v not above edge %v", centre, edge)
	}
	// Symmetric profile.
	for i := range w {
		if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
			t.Errorf("weights not symmetric at %d", i)
		}
	}
}

func TestFlowWeightsEvenWhenZero(t *testing.T) {
	w, err := testBank(8, 0).FlowWeights()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range w {
		if math.Abs(v-1) > 1e-12 {
			t.Errorf("w[%d] = %v with zero maldistribution", i, v)
		}
	}
}

// pathConditions splits per-path-average conditions into the actual
// per-path boundary conditions under the bank's flow maldistribution,
// with drive.PathTrace's convention: coolant flow scales by the path's
// weight w, air flow by 1+(w−1)/2 (open fin area maldistributes less).
func pathConditions(b *Bank, avg Conditions) ([]Conditions, error) {
	weights, err := b.FlowWeights()
	if err != nil {
		return nil, err
	}
	if err := avg.Validate(); err != nil {
		return nil, err
	}
	out := make([]Conditions, len(weights))
	for i, w := range weights {
		out[i] = avg
		out[i].CoolantFlowKgS = avg.CoolantFlowKgS * w
		out[i].AirFlowKgS = avg.AirFlowKgS * (1 + (w-1)/2)
	}
	return out, nil
}

func TestPathConditionsConserveFlow(t *testing.T) {
	b := testBank(9, 0.4)
	avg := validConditions()
	conds, err := pathConditions(b, avg)
	if err != nil {
		t.Fatal(err)
	}
	sumCool, sumAir := 0.0, 0.0
	for _, c := range conds {
		if err := c.Validate(); err != nil {
			t.Fatalf("path conditions invalid: %v", err)
		}
		sumCool += c.CoolantFlowKgS
		sumAir += c.AirFlowKgS
	}
	if math.Abs(sumCool-avg.CoolantFlowKgS*9) > 1e-12 {
		t.Errorf("coolant flow not conserved: %v", sumCool)
	}
	if math.Abs(sumAir-avg.AirFlowKgS*9) > 1e-9 {
		t.Errorf("air flow not conserved: %v", sumAir)
	}
}

func TestPathConditionsRejectBadAverage(t *testing.T) {
	b := testBank(4, 0.2)
	bad := validConditions()
	bad.CoolantFlowKgS = 0
	if _, err := pathConditions(b, bad); err == nil {
		t.Error("invalid average conditions should error")
	}
}

// bankTemps returns per-path per-module hot-side temperatures for a bank
// whose every path carries perPath modules: each path's split
// conditions through the shared radiator.
func bankTemps(t *testing.T, b *Bank, avg Conditions, perPath int) [][]float64 {
	t.Helper()
	conds, err := pathConditions(b, avg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(conds))
	for i, c := range conds {
		if out[i], err = b.Radiator.ModuleTemps(c, perPath); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestBankModuleTemps(t *testing.T) {
	b := testBank(7, 0.5)
	temps := bankTemps(t, b, validConditions(), 50)
	if len(temps) != 7 || len(temps[0]) != 50 {
		t.Fatalf("shape %dx%d", len(temps), len(temps[0]))
	}
	// The high-flow centre path stays hotter at the exhaust end than
	// the starved edge path (slower decay).
	centreExit := temps[3][49]
	edgeExit := temps[0][49]
	if centreExit <= edgeExit {
		t.Errorf("centre exit %v not hotter than edge exit %v", centreExit, edgeExit)
	}
	// All paths share the same entrance temperature.
	if math.Abs(temps[3][0]-temps[0][0]) > 1.5 {
		t.Errorf("entrance temps diverge: %v vs %v", temps[3][0], temps[0][0])
	}
}

func TestBankSinglePath(t *testing.T) {
	b := testBank(1, 0)
	temps := bankTemps(t, b, validConditions(), 10)
	direct, err := DefaultRadiator().ModuleTemps(validConditions(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if math.Abs(temps[0][i]-direct[i]) > 1e-9 {
			t.Fatalf("single-path bank differs from direct radiator at %d", i)
		}
	}
}
