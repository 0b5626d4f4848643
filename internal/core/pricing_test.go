package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
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

// configureAtUnpruned is configureAt over bestAtUnpruned, with the
// full-scan DP table (naiveChoiceTable) behind the exhaustive search.
// It also reports whether a clean (no reverse-driven module) candidate
// won, and tallies its work as the runtime count defines it: N units
// per candidate priced, plus every cost evaluation of the DP table.
func configureAtUnpruned(e *Evaluator, sc *scratch, arr *array.Array, exhaustive bool) (starts []int, op Operating, clean bool, work int64, err error) {
	arr.NortonInto(&sc.nt)
	nmin, nmax, _, err := e.groupWindow(&sc.nt)
	if err != nil {
		return []int{0}, Operating{}, false, 0, nil
	}
	p := prefixSums(sc.nt.MPPCurrentsInto(nil))
	var choice [][]int32
	if exhaustive {
		choice, work = naiveChoiceTable(p, nmax)
	}
	var best, cleanStarts []int
	var bestOp, cleanOp Operating
	haveAny, haveClean := false, false
	for n := nmin; n <= nmax; n++ {
		s := make([]int, n)
		if exhaustive {
			if err := reconstructNaive(s, choice, arr.N()); err != nil {
				return nil, Operating{}, false, 0, err
			}
		} else {
			greedyPartitionInto(s, p)
		}
		op, err := bestAtUnpruned(e, sc, array.Config{N: arr.N(), Starts: s})
		if err != nil {
			return nil, Operating{}, false, 0, err
		}
		work += int64(arr.N())
		if !haveAny || op.Delivered > bestOp.Delivered {
			best, bestOp, haveAny = s, op, true
		}
		if !op.Reverse && (!haveClean || op.Delivered > cleanOp.Delivered) {
			cleanStarts, cleanOp, haveClean = s, op, true
		}
	}
	if haveClean {
		return cleanStarts, cleanOp, true, work, nil
	}
	if haveAny {
		return best, bestOp, false, work, nil
	}
	return []int{0}, Operating{}, false, work, nil
}

// sameOperating reports whether two operating points are bit-identical.
func sameOperating(a, b Operating) bool {
	return math.Float64bits(a.Current) == math.Float64bits(b.Current) &&
		math.Float64bits(a.Voltage) == math.Float64bits(b.Voltage) &&
		math.Float64bits(a.ArrayW) == math.Float64bits(b.ArrayW) &&
		math.Float64bits(a.Delivered) == math.Float64bits(b.Delivered) &&
		a.Reverse == b.Reverse
}

// Temperature profiles of pricingTestArray.
const (
	// radiatorProfile is randomProfile's radiator decay.
	radiatorProfile = iota
	// coldProfile pushes about a quarter of the modules below ambient:
	// they have no EMF, so a group mixing them with hot modules
	// reverse-drives them, often at n̂ itself.
	coldProfile
	// hotSpotProfile decays steeply from the inlet to a floor just above
	// ambient, so the mean group voltage is low and the high group
	// counts of the window stack open-circuit voltages past 2·MaxInput.
	hotSpotProfile
)

// pricingTestArray draws a profile of 20–140 modules of the given kind
// with a random health mix: fault-free, a few failed-open and
// failed-short modules, or many failed-short ones (which reverse-drive
// every group they share, forcing the all-reverse fallback).
func pricingTestArray(t *testing.T, e *Evaluator, rng *rand.Rand, kind int) *array.Array {
	t.Helper()
	temps, ambient := randomProfile(rng)
	switch kind {
	case coldProfile:
		for i := range temps {
			if rng.Intn(4) == 0 {
				temps[i] = ambient - 10*rng.Float64()
			}
		}
	case hotSpotProfile:
		tau := float64(len(temps)) * (0.02 + 0.06*rng.Float64())
		inlet, floor := ambient+60+30*rng.Float64(), ambient+0.5+1.5*rng.Float64()
		for i := range temps {
			temps[i] = floor + (inlet-floor)*math.Exp(-float64(i)/tau)
		}
	}
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
	arr, err := array.NewWithHealth(e.Spec, teg.OpsFromTempsInto(nil, temps, ambient), health)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestPricingMatchesUnprunedReference pins the pruned candidate pricing
// (candidates skipped by their delivered-power bound, coarse-scan
// points skipped by the PeakEff bound, the reverse check only where it
// can change the winner) to the unpruned reference: the same starts and
// bit-identical operating points from configureAt for both
// partitioners, from Best on random configurations, and from DNOR's
// windowEnergies. Both the clean-winner and the all-reverse fallback
// branches of configureAt must be exercised, and so must decisions
// whose first-priced candidate is reverse-driven (no threshold until
// the loop finds a clean candidate) and decisions with a clean first
// candidate whose window includes equivalents with Voc < MinInput or
// Voc/2 > MaxInput. One scratch serves every trial, so the first
// candidate is the previous decision's winner whenever that lies in
// the window, and n̂ otherwise.
func TestPricingMatchesUnprunedReference(t *testing.T) {
	e := newEval(t)
	rng := rand.New(rand.NewSource(77))
	sc, ref := newScratch(e), newScratch(e)
	cleanWins, fallbacks, firstReverse, vocOutside, pruned := 0, 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		kind := radiatorProfile
		if trial >= 150 {
			kind = coldProfile + trial%2
		}
		arr := pricingTestArray(t, e, rng, kind)
		for _, exhaustive := range []bool{false, true} {
			cfg, op, err := e.configureAt(sc, arr, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOp, clean, work, err := configureAtUnpruned(e, ref, arr, exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			if sc.work != work {
				t.Fatalf("trial %d exhaustive=%v: counted work %d, reference tally %d", trial, exhaustive, sc.work, work)
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
			if nmin, nmax, _, err := e.groupWindow(tableOf(arr)); err == nil {
				pruned += nmax - nmin + 1 - sc.priced
			}
			if !exhaustive {
				r, o := pruneRegimes(t, e, ref, arr, sc.first)
				firstReverse += r
				vocOutside += o
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
	t.Logf("%d clean winners, %d fallbacks, %d reverse-driven first candidates, %d out-of-range equivalents, %d candidates pruned",
		cleanWins, fallbacks, firstReverse, vocOutside, pruned)
	if firstReverse == 0 || vocOutside == 0 || pruned == 0 {
		t.Fatalf("prune regimes not exercised: %d reverse-driven first candidates, %d out-of-range equivalents, %d pruned", firstReverse, vocOutside, pruned)
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
			a, err := array.New(e.Spec, teg.OpsFromTempsInto(nil, w, ambient))
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

// pruneRegimes classifies a greedy configureAt decision on arr whose
// first-priced partition (the hint or n̂) is first: reverse is 1 when
// it was priced but reverse-driven (so it set no threshold); outside
// is 1 when it was clean and some candidate of the window has an
// equivalent with Voc < MinInput or Voc/2 > MaxInput. ref must hold
// arr's Norton pairs.
func pruneRegimes(t *testing.T, e *Evaluator, ref *scratch, arr *array.Array, first []int) (reverse, outside int) {
	t.Helper()
	nmin, nmax, _, err := e.groupWindow(&ref.nt)
	if err != nil {
		return 0, 0 // parked: first is stale
	}
	cfg := array.Config{N: arr.N(), Starts: first}
	op, ok, err := e.bestAt(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return 0, 0
	}
	if ref.nt.HasReverseCurrentAt(ref.eq, cfg, op.Current) {
		return 1, 0
	}
	p := prefixSums(ref.nt.MPPCurrentsInto(nil))
	for n := nmin; n <= nmax; n++ {
		s := make([]int, n)
		greedyPartitionInto(s, p)
		eq, err := arr.Equivalent(array.Config{N: arr.N(), Starts: s})
		if err != nil {
			t.Fatal(err)
		}
		if eq.Voc > 0 && (eq.Voc < e.Conv.MinInput || eq.Voc/2 > e.Conv.MaxInput) {
			return 0, 1
		}
	}
	return 0, 0
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

// TestDeliverBoundDominatesDeliveredPower checks both stages of the
// prune bound (the PeakEff parabola bound, returned when it already
// falls below the threshold, and the banded bound) on random
// equivalents and converter models: each is at least the delivered
// power at every current of a dense grid over [0, isc], and at least
// the Delivered that pricing finds. Open-circuit voltages span from
// below MinInput to past 2·MaxInput.
func TestDeliverBoundDominatesDeliveredPower(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	logUniform := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	priced := 0
	for trial := 0; trial < 1500; trial++ {
		conv := converter.LTM4607()
		if trial%2 == 1 {
			conv.Spread = rng.ExpFloat64() * 0.2
			conv.FloorEff = conv.PeakEff * rng.Float64()
			conv.MinInput = logUniform(1, 10)
			conv.MaxInput = conv.MinInput * logUniform(1.5, 20)
			conv.OutputVoltage = logUniform(conv.MinInput/2, conv.MaxInput*2)
		}
		e := &Evaluator{Spec: teg.TGM199, Conv: conv}
		sc := newScratch(e)
		sc.bands.build(conv)
		sc.eq = array.Equivalent{Voc: logUniform(1, 300), R: logUniform(0.05, 50)}
		voc, r := sc.eq.Voc, sc.eq.R
		stages := [2]float64{
			sc.bands.deliverBound(voc, r, math.Inf(1)),  // PeakEff stage
			sc.bands.deliverBound(voc, r, math.Inf(-1)), // banded stage
		}
		isc := voc / r
		const grid = 4000
		for k := 0; k <= grid; k++ {
			i := isc * float64(k) / grid
			if d := sc.deliver(i); d > stages[0] || d > stages[1] {
				t.Fatalf("%+v Voc=%g R=%g: deliver(%g) = %g above bound %v", conv, voc, r, i, d, stages)
			}
		}
		if op, ok := e.priceEq(sc); ok {
			priced++
			if op.Delivered > stages[0] || op.Delivered > stages[1] {
				t.Fatalf("%+v Voc=%g R=%g: Delivered %g above bound %v", conv, voc, r, op.Delivered, stages)
			}
		}
	}
	if priced == 0 {
		t.Fatal("no equivalent was priceable")
	}
}

// TestConfigureAtPricesAtMostHalfTheWindow pins the prune rate on a
// fixed radiator-decay profile at N = 100: both partitioners run the
// converter search for at most half of the group-count window. A
// silent revert to pricing every candidate fails here well before a
// wall-clock budget would notice.
func TestConfigureAtPricesAtMostHalfTheWindow(t *testing.T) {
	e := newEval(t)
	arr := newArr(t, decayTemps(100, 95, 45, 40), 25)
	nmin, nmax, _, err := e.groupWindow(tableOf(arr))
	if err != nil {
		t.Fatal(err)
	}
	window := nmax - nmin + 1
	sc := newScratch(e)
	for _, exhaustive := range []bool{false, true} {
		if _, _, err := e.configureAt(sc, arr, exhaustive); err != nil {
			t.Fatal(err)
		}
		t.Logf("exhaustive=%v: priced %d of %d candidates", exhaustive, sc.priced, window)
		if 2*sc.priced > window {
			t.Errorf("exhaustive=%v: priced %d of a %d-candidate window, want at most half", exhaustive, sc.priced, window)
		}
	}
}

// loadPrefixBound builds the prefix sums and error terms
// equivalentBound reads from the Norton pairs in sc.nt, as configureAt
// does once per decision.
func loadPrefixBound(sc *scratch) {
	sc.pg = prefixSumsInto(sc.pg, sc.nt.G)
	sc.pj = prefixSumsInto(sc.pj, sc.nt.J)
	sc.eg, sc.ej = groupSumError(sc.pg), groupSumError(sc.pj)
}

// TestPrefixBoundDominatesEquivalent checks equivalentBound against
// the sequential sums of Norton.EquivalentInto: vocHi ≥ Voc and
// rLo ≤ R on every configuration it accepts, and a refusal for every
// configuration with a broken group. The Norton pairs come from random
// and radiator-decay arrays with failed-open and failed-short modules
// (runs of failed-open modules break whole groups), and from synthetic
// pairs spanning sixteen decades with exact zeros, where the prefix
// differences round hardest. On physical arrays the bound must also be
// tight (within a relative 1e-6), or it would prune nothing.
func TestPrefixBoundDominatesEquivalent(t *testing.T) {
	e := newEval(t)
	rng := rand.New(rand.NewSource(23))
	sc := newScratch(e)
	var eq array.Equivalent
	accepted, brokenRefused := 0, 0
	check := func(label string, cfg array.Config, tight bool) {
		t.Helper()
		if err := sc.nt.EquivalentInto(&eq, cfg); err != nil {
			t.Fatal(err)
		}
		vocHi, rLo, ok := sc.equivalentBound(cfg.Starts)
		if eq.Broken {
			if ok {
				t.Fatalf("%s %v: broken equivalent accepted (vocHi %g, rLo %g)", label, cfg, vocHi, rLo)
			}
			brokenRefused++
			return
		}
		if !ok {
			return
		}
		accepted++
		if !(vocHi >= eq.Voc) || !(rLo <= eq.R) {
			t.Fatalf("%s %v: bound (vocHi %v, rLo %v) does not dominate (Voc %v, R %v)", label, cfg, vocHi, rLo, eq.Voc, eq.R)
		}
		if tight && (vocHi > eq.Voc*(1+1e-6)+1e-300 || rLo < eq.R*(1-1e-6)) {
			t.Fatalf("%s %v: bound (vocHi %v, rLo %v) loose against (Voc %v, R %v)", label, cfg, vocHi, rLo, eq.Voc, eq.R)
		}
	}
	for trial := 0; trial < 300; trial++ {
		var arr *array.Array
		label := "decay"
		if trial%2 == 0 {
			label = "random"
			arr = pricingTestArray(t, e, rng, radiatorProfile)
		} else {
			n := 100
			if trial%6 == 1 {
				n = 500
			}
			health := make([]array.ModuleHealth, n)
			for k := 0; k < rng.Intn(4); k++ {
				// A run of failed-open modules: any group inside it is broken.
				at, run := rng.Intn(n), 1+rng.Intn(8)
				for i := at; i < min(n, at+run); i++ {
					health[i] = array.FailedOpen
				}
			}
			for k := 0; k < rng.Intn(4); k++ {
				health[rng.Intn(n)] = array.FailedShort
			}
			var err error
			arr, err = array.NewWithHealth(e.Spec, teg.OpsFromTempsInto(nil, decayTemps(n, 80+20*rng.Float64(), 40, float64(n)*(0.1+0.4*rng.Float64())), 25), health)
			if err != nil {
				t.Fatal(err)
			}
		}
		arr.NortonInto(&sc.nt)
		loadPrefixBound(sc)
		p := prefixSums(sc.nt.MPPCurrentsInto(nil))
		for k := 0; k < 12; k++ {
			check(label, randomConfig(rng, arr.N()), true)
			s := make([]int, 1+rng.Intn(arr.N()))
			greedyPartitionInto(s, p)
			check(label, array.Config{N: arr.N(), Starts: s}, true)
		}
		// Single-module groups across every failed-open module.
		check(label, array.AllParallel(arr.N()), true)
		check(label, array.AllSeries(arr.N()), true)
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		sc.nt.G, sc.nt.J = make([]float64, n), make([]float64, n)
		for i := range sc.nt.G {
			switch rng.Intn(6) {
			case 0: // failed open
			case 1: // failed short
				sc.nt.G[i] = math.Pow(10, 8*rng.Float64())
			default:
				sc.nt.G[i] = math.Pow(10, 16*rng.Float64()-8)
				sc.nt.J[i] = math.Pow(10, 16*rng.Float64()-8)
			}
		}
		loadPrefixBound(sc)
		for k := 0; k < 20; k++ {
			check("synthetic", randomConfig(rng, n), false)
		}
		check("synthetic", array.AllSeries(n), false)
	}
	t.Logf("%d bounds checked, %d broken configurations refused", accepted, brokenRefused)
	if accepted == 0 || brokenRefused == 0 {
		t.Fatalf("cases not exercised: %d bounds accepted, %d broken configurations refused", accepted, brokenRefused)
	}
}
