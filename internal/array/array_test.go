package array

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"tegrecon/internal/teg"
)

// testOps builds an exponential-decay temperature profile like the
// radiator produces.
func testOps(n int) []teg.OperatingPoint {
	temps := make([]float64, n)
	for i := range temps {
		temps[i] = 35 + 55*math.Exp(-float64(i)/float64(n/3+1))
	}
	return teg.OpsFromTempsInto(nil, temps, 25)
}

func testArray(t *testing.T, n int) *Array {
	t.Helper()
	a, err := New(teg.TGM199, testOps(n))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewConfigValid(t *testing.T) {
	c, err := NewConfig(10, []int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if c.Groups() != 3 {
		t.Errorf("groups = %d", c.Groups())
	}
}

func TestNewConfigInvalid(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		starts []int
	}{
		{"empty", 10, nil},
		{"not-zero-first", 10, []int{1, 5}},
		{"not-increasing", 10, []int{0, 5, 5}},
		{"decreasing", 10, []int{0, 7, 3}},
		{"beyond-n", 10, []int{0, 10}},
		{"zero-modules", 0, []int{0}},
	}
	for _, tc := range cases {
		if _, err := NewConfig(tc.n, tc.starts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// groupSizes returns the module count of every group of c.
func groupSizes(c Config) []int {
	out := make([]int, c.Groups())
	for j := range out {
		lo, hi := c.GroupBounds(j)
		out[j] = hi - lo
	}
	return out
}

func TestUniformTenByTen(t *testing.T) {
	c, err := Uniform(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	sizes := groupSizes(c)
	if len(sizes) != 10 {
		t.Fatalf("groups = %d", len(sizes))
	}
	for j, s := range sizes {
		if s != 10 {
			t.Errorf("group %d size %d", j, s)
		}
	}
}

func TestUniformRemainder(t *testing.T) {
	c, err := Uniform(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := groupSizes(c)
	total := 0
	for _, s := range sizes {
		total += s
		if s < 3 || s > 4 {
			t.Errorf("unbalanced group size %d", s)
		}
	}
	if total != 10 {
		t.Errorf("sizes sum to %d", total)
	}
}

func TestUniformInfeasible(t *testing.T) {
	if _, err := Uniform(5, 6); err == nil {
		t.Error("more groups than modules should error")
	}
	if _, err := Uniform(5, 0); err == nil {
		t.Error("zero groups should error")
	}
}

func TestAllSeriesAllParallel(t *testing.T) {
	s := AllSeries(5)
	if s.Groups() != 5 {
		t.Errorf("AllSeries groups = %d", s.Groups())
	}
	p := AllParallel(5)
	if p.Groups() != 1 {
		t.Errorf("AllParallel groups = %d", p.Groups())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGroupBoundsAndSizesCoverAllModules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		// Random strictly increasing starts beginning at 0.
		starts := []int{0}
		for pos := 1 + rng.Intn(3); pos < n; pos += 1 + rng.Intn(5) {
			starts = append(starts, pos)
		}
		c, err := NewConfig(n, starts)
		if err != nil {
			return false
		}
		covered := 0
		prevHi := 0
		for j := 0; j < c.Groups(); j++ {
			lo, hi := c.GroupBounds(j)
			if lo != prevHi || hi <= lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEqualAndClone(t *testing.T) {
	a, _ := NewConfig(10, []int{0, 5})
	b := Config{N: a.N, Starts: append([]int(nil), a.Starts...)}
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Starts[1] = 6
	if a.Equal(b) {
		t.Error("mutated clone still equal")
	}
	if a.Starts[1] != 5 {
		t.Error("clone shares storage")
	}
	c, _ := NewConfig(10, []int{0})
	if a.Equal(c) {
		t.Error("different group count equal")
	}
	d, _ := NewConfig(12, []int{0, 5})
	if a.Equal(d) {
		t.Error("different N equal")
	}
}

func TestStringOneBased(t *testing.T) {
	c, _ := NewConfig(100, []int{0, 10, 20})
	s := c.String()
	if !strings.Contains(s, "C(1,11,21)") || !strings.Contains(s, "/100") {
		t.Errorf("String = %q", s)
	}
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := New(teg.TGM199, nil); err == nil {
		t.Error("empty ops should error")
	}
	bad := teg.TGM199
	bad.Couples = 0
	if _, err := New(bad, testOps(3)); err == nil {
		t.Error("invalid spec should error")
	}
}

func TestEquivalentSingleModule(t *testing.T) {
	a := testArray(t, 1)
	eq, err := a.Equivalent(AllParallel(1))
	if err != nil {
		t.Fatal(err)
	}
	wantV := a.Spec.Voc(a.Ops[0])
	wantR := a.Spec.R(a.Ops[0])
	if math.Abs(eq.Voc-wantV) > 1e-12 || math.Abs(eq.R-wantR) > 1e-12 {
		t.Errorf("single-module equivalent %+v, want Voc=%v R=%v", eq, wantV, wantR)
	}
}

func TestEquivalentSeriesAddition(t *testing.T) {
	a := testArray(t, 4)
	eq, err := a.Equivalent(AllSeries(4))
	if err != nil {
		t.Fatal(err)
	}
	sumV, sumR := 0.0, 0.0
	for _, op := range a.Ops {
		sumV += a.Spec.Voc(op)
		sumR += a.Spec.R(op)
	}
	if math.Abs(eq.Voc-sumV) > 1e-12 || math.Abs(eq.R-sumR) > 1e-12 {
		t.Errorf("series equivalent %+v, want %v, %v", eq, sumV, sumR)
	}
}

func TestEquivalentParallelIdenticalModules(t *testing.T) {
	// k identical modules in parallel: same Voc, R/k.
	ops := make([]teg.OperatingPoint, 5)
	for i := range ops {
		ops[i] = teg.OperatingPoint{DeltaT: 50, HotC: 75}
	}
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := a.Equivalent(AllParallel(5))
	if err != nil {
		t.Fatal(err)
	}
	wantV := a.Spec.Voc(ops[0])
	wantR := a.Spec.R(ops[0]) / 5
	if math.Abs(eq.Voc-wantV) > 1e-12 || math.Abs(eq.R-wantR) > 1e-12 {
		t.Errorf("parallel equivalent %+v, want Voc=%v R=%v", eq, wantV, wantR)
	}
}

func TestEquivalentShapeMismatch(t *testing.T) {
	a := testArray(t, 10)
	cfg, _ := NewConfig(5, []int{0})
	if _, err := a.Equivalent(cfg); err == nil {
		t.Error("config/array size mismatch should error")
	}
}

func TestKirchhoffCurrentLaw(t *testing.T) {
	// Property: group module currents sum to the array output current.
	a := testArray(t, 20)
	cfg, _ := NewConfig(20, []int{0, 5, 9, 15})
	for _, iOut := range []float64{0, 0.5, 1.0, 2.0} {
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

func TestEnergyConservation(t *testing.T) {
	a := testArray(t, 30)
	cfg, _ := NewConfig(30, []int{0, 7, 14, 22})
	for _, iOut := range []float64{0.1, 0.4, 0.9} {
		if rel := conservation(t, a, cfg, iOut); rel > 1e-9 {
			t.Errorf("energy conservation violated at I=%v: rel err %v", iOut, rel)
		}
	}
}

// conservation runs the energy-conservation check of cfg at iOut on a's
// module table, and requires the currents it fills to be
// ModuleCurrentsInto's.
func conservation(t *testing.T, a *Array, cfg Config, iOut float64) float64 {
	t.Helper()
	nt, eq, err := solve(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	currents, rel := nt.EnergyConservationCheck(eq, cfg, iOut, nil)
	want := nt.ModuleCurrentsInto(nil, eq, cfg, iOut)
	for m := range want {
		if currents[m] != want[m] {
			t.Fatalf("module %d carries %v in the check, %v in ModuleCurrentsInto", m, currents[m], want[m])
		}
	}
	return rel
}

func TestArrayMPPNeverBeatsIdeal(t *testing.T) {
	a := testArray(t, 50)
	rng := rand.New(rand.NewSource(11))
	ideal := a.norton().IdealPower()
	for trial := 0; trial < 50; trial++ {
		starts := []int{0}
		for pos := 1 + rng.Intn(5); pos < 50; pos += 1 + rng.Intn(10) {
			starts = append(starts, pos)
		}
		cfg, err := NewConfig(50, starts)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := a.Equivalent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if mpp := eq.MPP(); mpp.Power > ideal+1e-9 {
			t.Fatalf("config %v: MPP %v exceeds ideal %v", cfg, mpp.Power, ideal)
		}
	}
}

// mismatchLoss returns 1 − P_MPP(cfg)/P_ideal: the fraction of the
// ideal power lost to series/parallel mismatch under cfg.
func mismatchLoss(t *testing.T, a *Array, cfg Config) float64 {
	t.Helper()
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return 1 - eq.MPP().Power/a.norton().IdealPower()
}

// solve returns a fresh module table of a and the equivalent of cfg
// over it.
func solve(a *Array, cfg Config) (*Norton, Equivalent, error) {
	nt := a.norton()
	var eq Equivalent
	if err := nt.EquivalentInto(&eq, cfg); err != nil {
		return nil, Equivalent{}, err
	}
	return nt, eq, nil
}

// moduleCurrents returns the current through every module when a
// delivers iOut under cfg, on a fresh module table.
func moduleCurrents(a *Array, cfg Config, iOut float64) ([]float64, error) {
	nt, eq, err := solve(a, cfg)
	if err != nil {
		return nil, err
	}
	return nt.ModuleCurrentsInto(nil, eq, cfg, iOut), nil
}

func TestUniformTempsMakeUniformConfigIdeal(t *testing.T) {
	// With identical module temperatures, any uniform grouping hits
	// P_ideal exactly (no mismatch).
	ops := make([]teg.OperatingPoint, 12)
	for i := range ops {
		ops[i] = teg.OperatingPoint{DeltaT: 45, HotC: 70}
	}
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	for _, groups := range []int{1, 2, 3, 4, 6, 12} {
		cfg, err := Uniform(12, groups)
		if err != nil {
			t.Fatal(err)
		}
		if loss := mismatchLoss(t, a, cfg); loss > 1e-12 {
			t.Errorf("%d groups: mismatch loss %v on uniform temps", groups, loss)
		}
	}
}

func TestMismatchLossPositiveOnGradient(t *testing.T) {
	a := testArray(t, 100)
	cfg, err := Uniform(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	loss := mismatchLoss(t, a, cfg)
	if loss <= 0.01 {
		t.Errorf("expected visible mismatch loss on thermal gradient, got %v", loss)
	}
	if loss >= 1 {
		t.Errorf("loss %v out of range", loss)
	}
}

func TestMPPOfEquivalentMatchesScan(t *testing.T) {
	a := testArray(t, 25)
	cfg, _ := NewConfig(25, []int{0, 6, 12, 18})
	eq, err := a.Equivalent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mpp := eq.MPP()
	// Scan the I axis; nothing should beat the analytic MPP.
	isc := eq.Voc / eq.R
	for k := 0; k <= 400; k++ {
		i := isc * float64(k) / 400
		if p := eq.PowerAt(i); p > mpp.Power+1e-9 {
			t.Fatalf("P(%v) = %v beats analytic MPP %v", i, p, mpp.Power)
		}
	}
	if math.Abs(eq.VoltageAt(mpp.Current)-mpp.Voltage) > 1e-12 {
		t.Error("MPP voltage inconsistent with VoltageAt")
	}
}

// hasReverseCurrent runs the deciders' reverse-current check on fresh
// Norton pairs of a.
func hasReverseCurrent(t *testing.T, a *Array, cfg Config, iOut float64) bool {
	t.Helper()
	var nt Norton
	a.NortonInto(&nt)
	var eq Equivalent
	if err := nt.EquivalentInto(&eq, cfg); err != nil {
		t.Fatal(err)
	}
	return nt.HasReverseCurrentAt(eq, cfg, iOut)
}

func TestReverseCurrentDetection(t *testing.T) {
	// A group pairing a hot module with a cold one in parallel drives
	// the cold module in reverse near open circuit.
	temps := []float64{95, 26} // one hot, one barely warm
	a, err := New(teg.TGM199, teg.OpsFromTempsInto(nil, temps, 25))
	if err != nil {
		t.Fatal(err)
	}
	cfg := AllParallel(2)
	if !hasReverseCurrent(t, a, cfg, 0) { // open circuit
		t.Error("expected reverse current through cold module at open circuit")
	}
	// At high output current both modules source current.
	currents, err := moduleCurrents(a, cfg, a.Spec.ShortCircuitCurrent(a.Ops[0]))
	if err != nil {
		t.Fatal(err)
	}
	if currents[0] <= 0 {
		t.Error("hot module should source current")
	}
}

func TestNoReverseCurrentOnBalancedGroups(t *testing.T) {
	ops := make([]teg.OperatingPoint, 10)
	for i := range ops {
		ops[i] = teg.OperatingPoint{DeltaT: 50, HotC: 75}
	}
	a, err := New(teg.TGM199, ops)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := Uniform(10, 2)
	eq, _ := a.Equivalent(cfg)
	if hasReverseCurrent(t, a, cfg, eq.MPP().Current) {
		t.Error("balanced identical groups should never reverse at MPP")
	}
}

func TestMPPCurrentsMatchSpec(t *testing.T) {
	a := testArray(t, 5)
	currents := a.norton().MPPCurrentsInto(nil)
	for i, op := range a.Ops {
		if math.Abs(currents[i]-a.Spec.MaxPowerPoint(op).Current) > 1e-15 {
			t.Errorf("module %d MPP current mismatch", i)
		}
	}
}
