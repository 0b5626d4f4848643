package array

import (
	"math"
	"math/rand"
	"testing"

	"tegrecon/internal/teg"
)

// refEquivalent is the per-module reference the Norton path replaced:
// every group sum re-derives each module's 1/R and Voc/R from the spec
// and skips failed-open modules.
func refEquivalent(a *Array, cfg Config) Equivalent {
	eq := Equivalent{Groups: make([]GroupEquivalent, cfg.Groups())}
	for j := range eq.Groups {
		lo, hi := cfg.GroupBounds(j)
		sumG, sumVG := 0.0, 0.0
		for i := lo; i < hi; i++ {
			gi, vgi, ok := refContribution(a, i)
			if !ok {
				continue
			}
			sumG += gi
			sumVG += vgi
		}
		if sumG == 0 {
			return Equivalent{Broken: true, Groups: eq.Groups}
		}
		g := GroupEquivalent{Voc: sumVG / sumG, R: 1 / sumG}
		eq.Groups[j] = g
		eq.Voc += g.Voc
		eq.R += g.R
	}
	return eq
}

func refContribution(a *Array, i int) (g, vg float64, conducts bool) {
	switch a.healthOf(i) {
	case FailedOpen:
		return 0, 0, false
	case FailedShort:
		return 1 / shortResistance, 0, true
	default:
		r := a.Spec.R(a.Ops[i])
		return 1 / r, a.Spec.Voc(a.Ops[i]) / r, true
	}
}

func refModuleCurrents(a *Array, eq Equivalent, cfg Config, iOut float64) []float64 {
	out := make([]float64, a.N())
	if eq.Broken {
		return out
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for m := lo; m < hi; m++ {
			gm, vgm, ok := refContribution(a, m)
			if ok {
				out[m] = vgm - vg*gm
			}
		}
	}
	return out
}

func refReverse(a *Array, eq Equivalent, cfg Config, iOut float64) bool {
	if eq.Broken {
		return false
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for m := lo; m < hi; m++ {
			gm, vgm, ok := refContribution(a, m)
			if ok && vgm-vg*gm < -1e-9 {
				return true
			}
		}
	}
	return false
}

// nortonCase draws a random array of n modules — temperatures from
// barely above ambient to radiator-inlet hot, a health mix, and now and
// then a group whose members all failed open — plus a random valid
// configuration over it.
func nortonCase(rng *rand.Rand, n int) (*Array, Config) {
	ops := make([]teg.OperatingPoint, n)
	for i := range ops {
		dT := 0.5 + 79.5*rng.Float64()
		ops[i] = teg.OperatingPoint{DeltaT: dT, HotC: 25 + dT}
	}
	cfg := randomConfig(rng, n)
	var health []ModuleHealth
	if rng.Intn(4) > 0 {
		health = make([]ModuleHealth, n)
		pOpen, pShort := 0.2*rng.Float64(), 0.2*rng.Float64()
		for i := range health {
			switch u := rng.Float64(); {
			case u < pOpen:
				health[i] = FailedOpen
			case u < pOpen+pShort:
				health[i] = FailedShort
			}
		}
		if rng.Intn(4) == 0 {
			lo, hi := cfg.GroupBounds(rng.Intn(cfg.Groups()))
			for i := lo; i < hi; i++ {
				health[i] = FailedOpen
			}
		}
	}
	return &Array{Spec: teg.TGM199, Ops: ops, Health: health}, cfg
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestNortonPathBitEqualsPerModuleReference is the referee of the
// Norton hoist: the equivalent, the reverse-current check and the
// module currents computed from precomputed Norton pairs are bit-equal
// (math.Float64bits) to the per-module reference, across array sizes,
// health mixes, broken chains and random configurations — both through
// a reused Norton and through the Array convenience forms.
func TestNortonPathBitEqualsPerModuleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var nt Norton
	var eq Equivalent
	var cur []float64
	broken, reversed := 0, 0
	for _, n := range []int{1, 7, 100, 500, 800} {
		for trial := 0; trial < 40; trial++ {
			a, cfg := nortonCase(rng, n)
			want := refEquivalent(a, cfg)
			a.NortonInto(&nt)
			if err := nt.EquivalentInto(&eq, cfg); err != nil {
				t.Fatal(err)
			}
			viaArray, err := a.Equivalent(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []Equivalent{eq, viaArray} {
				if got.Broken != want.Broken || !sameBits(got.Voc, want.Voc) || !sameBits(got.R, want.R) {
					t.Fatalf("N=%d trial %d: equivalent %+v, want %+v", n, trial, got, want)
				}
				if want.Broken {
					continue
				}
				for j := range want.Groups {
					if !sameBits(got.Groups[j].Voc, want.Groups[j].Voc) || !sameBits(got.Groups[j].R, want.Groups[j].R) {
						t.Fatalf("N=%d trial %d group %d: %+v, want %+v", n, trial, j, got.Groups[j], want.Groups[j])
					}
				}
			}
			if want.Broken {
				broken++
			}
			currents := []float64{0, 1e-3, 5 * rng.Float64()}
			if !want.Broken && want.R > 0 {
				currents = append(currents, want.MPP().Current, 1.2*want.Voc/want.R*rng.Float64())
			}
			for _, iOut := range currents {
				got, w := nt.HasReverseCurrentAt(eq, cfg, iOut), refReverse(a, want, cfg, iOut)
				if got != w {
					t.Fatalf("N=%d trial %d I=%g: reverse %v, want %v", n, trial, iOut, got, w)
				}
				if w {
					reversed++
				}
				wantCur := refModuleCurrents(a, want, cfg, iOut)
				cur = nt.ModuleCurrentsInto(cur, eq, cfg, iOut)
				for m := range wantCur {
					if !sameBits(cur[m], wantCur[m]) {
						t.Fatalf("N=%d trial %d I=%g module %d: %g, want %g", n, trial, iOut, m, cur[m], wantCur[m])
					}
				}
			}
		}
	}
	if broken == 0 || reversed == 0 {
		t.Errorf("exercised %d broken chains and %d reverse-driven points, want both > 0", broken, reversed)
	}
}

// TestNortonEquivalentKeepsChecks: the Norton path refuses a config
// sized for another array and an invalid config, as the array form does.
func TestNortonEquivalentKeepsChecks(t *testing.T) {
	a := testArray(t, 10)
	var nt Norton
	a.NortonInto(&nt)
	var eq Equivalent
	if err := nt.EquivalentInto(&eq, AllParallel(9)); err == nil {
		t.Error("size mismatch accepted")
	}
	if err := nt.EquivalentInto(&eq, Config{N: 10, Starts: []int{0, 5, 5}}); err == nil {
		t.Error("invalid config accepted")
	}
}
