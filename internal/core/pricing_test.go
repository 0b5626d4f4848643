package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/teg"
	"tegrecon/internal/units"
)

// bestAtUnpruned is candidate pricing without pruning: the full coarse
// scan through the deliver closure and the reverse-current check on
// every searched candidate. bestAt plus its callers' reverse checks
// must reproduce it bit for bit.
func bestAtUnpruned(e *Evaluator, sc *scratch, cfg array.Config) (Operating, error) {
	if err := sc.nt.EquivalentInto(&sc.eq, cfg); err != nil {
		return Operating{}, err
	}
	if sc.eq.Voc <= 0 {
		return Operating{}, nil
	}
	isc := sc.eq.Voc / sc.eq.R
	const coarse = 64
	bestI, bestP := 0.0, 0.0
	for k := 0; k <= coarse; k++ {
		i := isc * float64(k) / coarse
		if p := sc.deliver(i); p > bestP {
			bestP, bestI = p, i
		}
	}
	if bestP <= 0 {
		return Operating{}, nil
	}
	lo := math.Max(0, bestI-isc/coarse)
	hi := math.Min(isc, bestI+isc/coarse)
	i, p := units.GoldenMax(sc.deliver, lo, hi, isc*1e-7)
	rev := sc.nt.HasReverseCurrentAt(sc.eq, cfg, i)
	v := sc.eq.VoltageAt(i)
	return Operating{Current: i, Voltage: v, ArrayW: v * i, Delivered: p, Reverse: rev}, nil
}

// configureAtUnpruned is configureAt over bestAtUnpruned. It also
// reports whether a clean (no reverse-driven module) candidate won.
func configureAtUnpruned(e *Evaluator, sc *scratch, arr *array.Array, exhaustive bool) (starts []int, op Operating, clean bool, err error) {
	nmin, nmax, err := e.GroupWindow(arr)
	if err != nil {
		return []int{0}, Operating{}, false, nil
	}
	arr.NortonInto(&sc.nt)
	p := prefixSums(arr.MPPCurrentsInto(nil))
	var dp dpBuffers
	if exhaustive {
		if err := dp.tableInto(p, nmax); err != nil {
			return nil, Operating{}, false, err
		}
	}
	var best, cleanStarts []int
	var bestOp, cleanOp Operating
	haveAny, haveClean := false, false
	for n := nmin; n <= nmax; n++ {
		s := make([]int, n)
		if exhaustive {
			if err := dp.reconstructInto(s); err != nil {
				return nil, Operating{}, false, err
			}
		} else {
			greedyPartitionInto(s, p)
		}
		op, err := bestAtUnpruned(e, sc, array.Config{N: arr.N(), Starts: s})
		if err != nil {
			return nil, Operating{}, false, err
		}
		if !haveAny || op.Delivered > bestOp.Delivered {
			best, bestOp, haveAny = s, op, true
		}
		if !op.Reverse && (!haveClean || op.Delivered > cleanOp.Delivered) {
			cleanStarts, cleanOp, haveClean = s, op, true
		}
	}
	if haveClean {
		return cleanStarts, cleanOp, true, nil
	}
	if haveAny {
		return best, bestOp, false, nil
	}
	return []int{0}, Operating{}, false, nil
}

// sameOperating reports whether two operating points are bit-identical.
func sameOperating(a, b Operating) bool {
	return math.Float64bits(a.Current) == math.Float64bits(b.Current) &&
		math.Float64bits(a.Voltage) == math.Float64bits(b.Voltage) &&
		math.Float64bits(a.ArrayW) == math.Float64bits(b.ArrayW) &&
		math.Float64bits(a.Delivered) == math.Float64bits(b.Delivered) &&
		a.Reverse == b.Reverse
}

// pricingTestArray draws a radiator profile of 20–140 modules with a
// random health mix: fault-free, a few failed-open and failed-short
// modules, or many failed-short ones (which reverse-drive every group
// they share, forcing the all-reverse fallback).
func pricingTestArray(t *testing.T, e *Evaluator, rng *rand.Rand) *array.Array {
	t.Helper()
	temps, ambient := randomProfile(rng)
	health := make([]array.ModuleHealth, len(temps))
	switch rng.Intn(3) {
	case 1:
		for k := 0; k < 1+rng.Intn(4); k++ {
			health[rng.Intn(len(health))] = array.ModuleHealth(1 + rng.Intn(2))
		}
	case 2:
		for i := range health {
			if rng.Intn(4) == 0 {
				health[i] = array.FailedShort
			}
		}
	}
	arr, err := array.NewWithHealth(e.Spec, teg.OpsFromTemps(temps, ambient), health)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestPricingMatchesUnprunedReference pins the pruned candidate pricing
// (coarse-scan points skipped by the PeakEff bound, the reverse check
// only where it can change the winner) to the unpruned reference: the
// same starts and bit-identical operating points from configureAt for
// both partitioners, from Best on random configurations, and from DNOR's
// windowEnergies. Both the clean-winner and the all-reverse fallback
// branches of configureAt must be exercised.
func TestPricingMatchesUnprunedReference(t *testing.T) {
	e := newEval(t)
	rng := rand.New(rand.NewSource(77))
	sc, ref := newScratch(e), newScratch(e)
	cleanWins, fallbacks := 0, 0
	for trial := 0; trial < 150; trial++ {
		arr := pricingTestArray(t, e, rng)
		for _, exhaustive := range []bool{false, true} {
			cfg, op, err := e.configureAt(sc, arr, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOp, clean, err := configureAtUnpruned(e, ref, arr, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.Equal(array.Config{N: arr.N(), Starts: want}) {
				t.Fatalf("trial %d exhaustive=%v: starts %v, reference %v", trial, exhaustive, cfg.Starts, want)
			}
			if !sameOperating(op, wantOp) {
				t.Fatalf("trial %d exhaustive=%v: operating %+v, reference %+v", trial, exhaustive, op, wantOp)
			}
			if wantOp.Delivered > 0 {
				if clean {
					cleanWins++
				} else {
					fallbacks++
				}
			}
		}

		// Best on random partitions of the same array.
		arr.NortonInto(&ref.nt)
		for k := 0; k < 4; k++ {
			c := randomConfig(rng, arr.N())
			got, err := e.Best(arr, c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bestAtUnpruned(e, ref, c)
			if err != nil {
				t.Fatal(err)
			}
			if !sameOperating(got, want) {
				t.Fatalf("trial %d Best(%v): %+v, reference %+v", trial, c, got, want)
			}
		}
	}
	if cleanWins == 0 || fallbacks == 0 {
		t.Fatalf("branches not both exercised: %d clean winners, %d all-reverse fallbacks", cleanWins, fallbacks)
	}

	// DNOR's window pricing reads only Delivered.
	d := newDNOR(t, 4)
	for trial := 0; trial < 40; trial++ {
		temps, ambient := randomProfile(rng)
		n := len(temps)
		window := make([][]float64, 5)
		for k := range window {
			window[k] = make([]float64, n)
			for i, v := range temps {
				window[k][i] = v + rng.NormFloat64()*float64(k)
			}
		}
		old, cand := randomConfig(rng, n), randomConfig(rng, n)
		eOld, eNew, err := d.windowEnergies(old, cand, window, ambient)
		if err != nil {
			t.Fatal(err)
		}
		var wOld, wNew float64
		for _, w := range window {
			a, err := array.New(e.Spec, teg.OpsFromTemps(w, ambient))
			if err != nil {
				t.Fatal(err)
			}
			a.NortonInto(&ref.nt)
			opOld, err := bestAtUnpruned(e, ref, old)
			if err != nil {
				t.Fatal(err)
			}
			opNew, err := bestAtUnpruned(e, ref, cand)
			if err != nil {
				t.Fatal(err)
			}
			wOld += opOld.Delivered * d.tickSecs
			wNew += opNew.Delivered * d.tickSecs
		}
		if math.Float64bits(eOld) != math.Float64bits(wOld) || math.Float64bits(eNew) != math.Float64bits(wNew) {
			t.Fatalf("trial %d: window energies (%v, %v), reference (%v, %v)", trial, eOld, eNew, wOld, wNew)
		}
	}
}

// randomConfig draws a valid partition of n modules into 1..min(n, 40)
// groups.
func randomConfig(rng *rand.Rand, n int) array.Config {
	g := 1 + rng.Intn(min(n, 40))
	starts := append([]int{0}, rng.Perm(n - 1)[:g-1]...)
	for i := 1; i < g; i++ {
		starts[i]++
	}
	sort.Ints(starts)
	return array.Config{N: n, Starts: starts}
}
