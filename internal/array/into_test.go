package array

import (
	"math/rand"
	"testing"

	"tegrecon/internal/teg"
)

// randomFaultyArray builds an array with a mixed health vector for the
// equivalence tests below.
func randomFaultyArray(t *testing.T, rng *rand.Rand, n int) *Array {
	t.Helper()
	ops := make([]teg.OperatingPoint, n)
	health := make([]ModuleHealth, n)
	for i := range ops {
		dT := 20 + 60*rng.Float64()
		ops[i] = teg.OperatingPoint{DeltaT: dT, HotC: 25 + dT}
		switch {
		case rng.Float64() < 0.05:
			health[i] = FailedOpen
		case rng.Float64() < 0.05:
			health[i] = FailedShort
		}
	}
	a, err := NewWithHealth(teg.TGM199, ops, health)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randomConfig(rng *rand.Rand, n int) Config {
	starts := []int{0}
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.15 {
			starts = append(starts, i)
		}
	}
	return Config{N: n, Starts: starts}
}

// TestEquivalentIntoMatchesEquivalent proves the in-place assembly is
// bit-identical to the allocating form — including when the dst carries
// stale state from a previous, larger configuration.
func TestEquivalentIntoMatchesEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var reused Equivalent
	for trial := 0; trial < 200; trial++ {
		a := randomFaultyArray(t, rng, 40)
		cfg := randomConfig(rng, 40)
		want, err := a.Equivalent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.EquivalentInto(&reused, cfg); err != nil {
			t.Fatal(err)
		}
		if reused.Voc != want.Voc || reused.R != want.R || reused.Broken != want.Broken {
			t.Fatalf("trial %d: equivalent differs: %+v vs %+v", trial, reused, want)
		}
		if !want.Broken {
			if len(reused.Groups) != len(want.Groups) {
				t.Fatalf("trial %d: %d vs %d groups", trial, len(reused.Groups), len(want.Groups))
			}
			for j := range want.Groups {
				if reused.Groups[j] != want.Groups[j] {
					t.Fatalf("trial %d group %d: %+v vs %+v", trial, j, reused.Groups[j], want.Groups[j])
				}
			}
		}
	}
}

// TestModuleCurrentsIntoMatches proves the scratch-reusing Norton form
// equals the allocating one, stale buffer contents included.
func TestModuleCurrentsIntoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var buf []float64
	var nt Norton
	for trial := 0; trial < 200; trial++ {
		a := randomFaultyArray(t, rng, 30)
		cfg := randomConfig(rng, 30)
		iOut := 3 * rng.Float64()
		want, err := moduleCurrents(a, cfg, iOut)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := a.Equivalent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.NortonInto(&nt)
		buf = nt.ModuleCurrentsInto(buf, eq, cfg, iOut)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: %d vs %d currents", trial, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d module %d: %g vs %g", trial, i, buf[i], want[i])
			}
		}
	}
}

// TestConversionEfficiencyAtMatches proves the simulator's efficiency
// path over reused Norton pairs, equivalent and current scratch is
// bit-identical to one priced on fresh allocations, across healthy and
// faulty arrays.
func TestConversionEfficiencyAtMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var buf []float64
	var nt Norton
	var eq Equivalent
	for trial := 0; trial < 200; trial++ {
		a := randomFaultyArray(t, rng, 30)
		cfg := randomConfig(rng, 30)
		iOut := 2 * rng.Float64()
		want, err := efficiency(t, a, cfg, iOut)
		if err != nil {
			t.Fatal(err)
		}
		a.NortonInto(&nt)
		if err := nt.EquivalentInto(&eq, cfg); err != nil {
			t.Fatal(err)
		}
		buf = nt.ModuleCurrentsInto(buf, eq, cfg, iOut)
		got, err := a.ConversionEfficiencyAt(&nt, eq, iOut, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: efficiency %g vs %g", trial, got, want)
		}
	}
}

// TestMPPCurrentsIntoReusesAndMatches checks in-place reuse against a
// fresh slice, including the stale-entry overwrite of failed modules.
func TestMPPCurrentsIntoReusesAndMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	buf := []float64{99, 99, 99} // stale content must be overwritten
	var nt Norton
	for trial := 0; trial < 50; trial++ {
		a := randomFaultyArray(t, rng, 25)
		a.NortonInto(&nt)
		want := a.norton().MPPCurrentsInto(nil)
		buf = nt.MPPCurrentsInto(buf)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d module %d: %g vs %g", trial, i, buf[i], want[i])
			}
		}
	}
}
