package core

import (
	"fmt"
	"math"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/teg"
	"tegrecon/internal/units"
)

// scratch is the reusable work state of one decider. Every buffer the
// per-period decision path needs — operating points, the per-module
// Norton pairs, MPP currents, prefix sums of the currents and of the
// Norton pairs, candidate partitions, the Thevenin equivalent and the
// delivered-power closure handed to the golden-section search — lives
// here and is overwritten in place each Decide, so a controller's
// steady-state decision performs no heap allocation.
//
// A scratch is owned by exactly one controller and shares its
// no-concurrent-use contract; the configs a decider returns alias the
// winner buffers below and stay valid only until its next Decide call
// (callers that retain a configuration across periods — the simulator's
// previous-topology bookkeeping, DNOR's incumbent — copy what they
// keep).
type scratch struct {
	ops    []teg.OperatingPoint // sensed temperatures → operating points
	arr    array.Array          // assembled in place over ops
	nt     array.Norton         // per-module Norton pairs of the distribution being priced
	impp   []float64            // per-module MPP currents (Algorithm 1 input)
	prefix []float64            // prefix sums of impp, shared by all candidates
	pg, pj []float64            // prefix sums of nt.G and nt.J (the candidate bound)
	eg, ej float64              // their difference-error terms (groupSumError)
	starts []int                // candidate partition under evaluation
	first  []int                // partition of the candidate priced first
	best   []int                // winner partition (any operating point)
	clean  []int                // winner partition without reverse-driven modules
	park   []int                // the all-parallel fallback config
	eq     array.Equivalent     // Thevenin equivalent of the candidate under pricing
	dp     dpBuffers            // EHTR's dynamic-programming state
	bands  bandTable            // converter efficiency bounds for candidate pruning

	// priced counts the candidates configureAt ran the converter search
	// for in its last call; the rest were pruned by their bound.
	priced int
	// work is the published algorithm's operation count for the last
	// configureAt call, which pruning never changes.
	work int64
	// hint is the group count configureAt last returned from a search,
	// 0 before the first one. The next search prices it first when it
	// lies in that search's window. It only orders the pricing and
	// never changes a decision (see configureAt); a controller's Reset
	// clears it.
	hint int

	// deliver is the converter-weighted power at array output current i
	// for the equivalent currently in eq — the objective handed to the
	// golden-section search (the coarse scan inlines the same
	// arithmetic). Built once per scratch so pricing a candidate
	// captures no per-call closure.
	deliver func(i float64) float64
}

// newScratch builds a scratch whose deliver closure prices power
// through e's converter.
func newScratch(e *Evaluator) *scratch {
	sc := &scratch{}
	sc.deliver = func(i float64) float64 {
		v := sc.eq.VoltageAt(i)
		return e.Conv.OutputPower(v, v*i)
	}
	return sc
}

// pruneBands is the number of geometric input-voltage bands that
// bandTable splits the converter's [MinInput, MaxInput] range into.
const pruneBands = 32

// bandTable holds the converter's efficiency maximum over each of
// pruneBands geometric voltage bands spanning [MinInput, MaxInput].
// It depends only on the converter model, so a scratch builds it once
// and rebuilds it only if its evaluator's model changes.
type bandTable struct {
	conv converter.Model // model the table was built for
	edge [pruneBands + 1]float64
	eta  [pruneBands]float64 // MaxEfficiency over [edge[k], edge[k+1]]
}

// build tabulates the band edges and efficiency maxima of m.
func (b *bandTable) build(m converter.Model) {
	b.conv = m
	b.edge[0], b.edge[pruneBands] = m.MinInput, m.MaxInput
	for k := 1; k < pruneBands; k++ {
		b.edge[k] = m.MinInput * math.Pow(m.MaxInput/m.MinInput, float64(k)/pruneBands)
	}
	for k := range b.eta {
		b.eta[k] = m.MaxEfficiency(b.edge[k], b.edge[k+1])
	}
}

// deliverBound returns an upper bound on the delivered power
// v·i·η(v) at every output current of an equivalent with open-circuit
// voltage voc ≥ 0 and resistance r, including the rounding of the
// pricing arithmetic. Array power is at most the parabola v(voc−v)/r,
// so PeakEff·voc²/4r bounds it; only when that does not fall below thr
// is the tighter bound computed: the maximum over the bands below
// min(MaxInput, voc) of the band's parabola maximum times its
// efficiency maximum. Either result is inflated by a relative 1e-9 and
// an absolute 1e-12·voc²/r, which dominate the rounding of v·i and
// Efficiency's logarithm. A NaN input yields a NaN bound.
func (b *bandTable) deliverBound(voc, r, thr float64) float64 {
	slack := 1e-12 * voc * voc / r
	if ub := b.conv.PeakEff*voc*voc/(4*r)*(1+1e-9) + slack; ub < thr {
		return ub
	}
	top, half := min(voc, b.conv.MaxInput), voc/2
	best := 0.0
	for k, eta := range b.eta {
		lo := b.edge[k]
		if lo > top {
			break
		}
		// The parabola peaks at voc/2; on [lo, hi] its maximum sits at
		// the point of the band nearest it.
		v := min(max(half, lo), min(b.edge[k+1], top))
		best = max(best, eta*v*(voc-v)) // NaN-propagating
	}
	return best/r*(1+1e-9) + slack
}

// unitRoundoff is u = 2⁻⁵³, the largest relative rounding error of
// one float64 operation.
const unitRoundoff = 0x1p-53

// groupSumError bounds how far a difference p[hi] − p[lo] of the
// prefix sums p of N non-negative terms (prefixSumsInto) can lie from
// the sequential sum of the same terms over [lo, hi) that
// array.Norton.EquivalentInto accumulates from zero. With T the exact
// total and γ_N = N·u/(1−N·u): each prefix entry lies within γ_N·T of
// its exact value, the sequential group sum within γ_N·T of its own,
// and the subtraction rounds by at most u·(1+2γ_N)·T. For N·u ≤ 0.01
// (N below 10¹³, far past any admitted array) that sum is below
// 4(N+1)·u·p[N], with room for the rounding of the product itself;
// where the product would underflow the sums are subnormal, and
// subnormal additions are exact. An overflowed total yields +Inf (or
// NaN downstream), which prunes nothing.
func groupSumError(p []float64) float64 {
	n := len(p) - 1
	return float64(4*(n+1)) * p[n] * unitRoundoff
}

// equivalentBound returns vocHi ≥ eq.Voc and rLo ≤ eq.R for the
// equivalent eq that array.Norton.EquivalentInto builds for the
// partition starts, in O(n) from the prefix sums sc.pg and sc.pj of the
// Norton pairs instead of that O(N) sequential sum. Each group's
// conductance and source sums lie within sc.eg and sc.ej of their
// prefix differences ΔG and ΔJ (groupSumError), so a group's
// equivalent obeys Voc_g ≤ (ΔJ+ej)/(ΔG−eg) and R_g ≥ 1/(ΔG+eg) before
// rounding. The rounding of EquivalentInto's divisions and n-term sums
// and of this function's own arithmetic is below a relative (2n+3)·u
// on either side; scaling vocHi up and rLo down by 4(n+2)·u covers it.
// ok is false, and the bound unusable, when some group's conductance
// lower bound is not positive or is NaN: that group may be broken
// (every module failed open), which EquivalentInto reports with a
// zeroed equivalent. sc.pj sums nt.J itself rather than doubling
// sc.prefix: J = Voc/R equals twice the MPP current Voc/(2R) bit for
// bit only while that quotient is a normal float.
func (sc *scratch) equivalentBound(starts []int) (vocHi, rLo float64, ok bool) {
	n, nMod := len(starts), len(sc.pg)-1
	voc, r := 0.0, 0.0
	for j, lo := range starts {
		hi := nMod
		if j+1 < n {
			hi = starts[j+1]
		}
		dg := sc.pg[hi] - sc.pg[lo]
		gLo := dg - sc.eg
		if !(gLo > 0) {
			return 0, 0, false
		}
		voc += (sc.pj[hi] - sc.pj[lo] + sc.ej) / gLo
		r += 1 / (dg + sc.eg)
	}
	slack := float64(4*(n+2)) * unitRoundoff
	return voc * (1 + slack), r * (1 - slack), true
}

// parkConfig returns the all-parallel configuration backed by the
// scratch's own storage (the zero-EMF fallback of configureAt).
func (sc *scratch) parkConfig(n int) array.Config {
	if cap(sc.park) < 1 {
		sc.park = make([]int, 1)
	}
	sc.park = sc.park[:1]
	sc.park[0] = 0
	return array.Config{N: n, Starts: sc.park}
}

// bestAt is Evaluator.Best evaluated through the scratch against the
// Norton pairs already in sc.nt: it builds cfg's equivalent into sc.eq
// and prices it (priceEq). Best and DNOR's window pricing use this
// combined form; configureAt builds each equivalent itself so that it
// can bound a candidate before deciding to price it.
//
// bestAt leaves Reverse false: callers that read it run the O(N)
// reverse-current check themselves, and only when ok reports that an
// operating point was searched. sc.eq keeps cfg's equivalent for that
// check until the scratch prices another candidate.
func (e *Evaluator) bestAt(sc *scratch, cfg array.Config) (op Operating, ok bool, err error) {
	if err := sc.nt.EquivalentInto(&sc.eq, cfg); err != nil {
		return Operating{}, false, err
	}
	op, ok = e.priceEq(sc)
	return op, ok, nil
}

// priceEq locates the delivered-power maximum of the equivalent in
// sc.eq. The delivered-power closure and every intermediate buffer are
// reused, so pricing a candidate allocates nothing. Identical
// arithmetic to Best — the same coarse scan, the same golden-section
// refinement — so results are bit-equal. ok is false when no operating
// point was searched (no EMF, or the converter runs nowhere on the
// curve).
func (e *Evaluator) priceEq(sc *scratch) (op Operating, ok bool) {
	if sc.eq.Voc <= 0 {
		return Operating{}, false
	}
	isc := sc.eq.Voc / sc.eq.R
	// Coarse scan to bracket the global maximum. Efficiency never
	// exceeds PeakEff and IEEE multiplication is monotone, so a point
	// whose array power at peak efficiency is ≤ bestP cannot win the
	// strict comparison below; skipping its converter call (math.Log)
	// leaves bestI and bestP unchanged. (A NaN efficiency never wins
	// either.)
	const coarse = 64
	peak := e.Conv.PeakEff
	bestI, bestP := 0.0, 0.0
	for k := 0; k <= coarse; k++ {
		i := isc * float64(k) / coarse
		v := sc.eq.VoltageAt(i)
		pin := v * i
		if pin*peak <= bestP {
			continue
		}
		if p := e.Conv.OutputPower(v, pin); p > bestP {
			bestP, bestI = p, i
		}
	}
	if bestP <= 0 {
		// Converter cannot run anywhere on this curve.
		return Operating{}, false
	}
	lo := math.Max(0, bestI-isc/coarse)
	hi := math.Min(isc, bestI+isc/coarse)
	i, p := units.GoldenMax(sc.deliver, lo, hi, isc*1e-7)
	v := sc.eq.VoltageAt(i)
	return Operating{
		Current:   i,
		Voltage:   v,
		ArrayW:    v * i,
		Delivered: p,
	}, true
}

// partitionInto writes the len(starts)-group partition of the chain
// into starts: the greedy walk over sc.prefix (INOR/DNOR) or a backward
// walk over the DP table already built in sc.dp (EHTR).
func (sc *scratch) partitionInto(starts []int, exhaustive bool) error {
	if exhaustive {
		return sc.dp.reconstructInto(starts)
	}
	greedyPartitionInto(starts, sc.prefix)
	return nil
}

// configureAt searches the group-count window through the scratch:
// greedy partitions (INOR/DNOR) or the exhaustive DP (EHTR when
// exhaustive is set), each candidate priced over reused buffers. The
// module table (array.Norton) depends only on the distribution, so it
// is built once here, first: the group-count window, the MPP currents
// and every candidate's pricing read it. The returned Config aliases
// the scratch winner buffers and is valid until the scratch's next use.
//
// Most candidates are priced only to lose, so the search prices one
// likely winner first: last period's winning group count (sc.hint)
// when it lies in this period's window, since temperatures drift
// slowly, and otherwise n̂, the group count whose nominal stacked
// voltage lands nearest the converter's output voltage. Every clean
// candidate found — the first one if it drives no module in reverse,
// then each new clean winner of the loop — raises the threshold thr,
// which the final clean winner, and so the final overall winner,
// reaches. Which candidate is priced first does not matter for that:
// it is one of the window's candidates, so its Delivered, when clean,
// is at most the final clean maximum. Every other candidate whose
// delivered-power bound (bandTable.deliverBound) falls below thr is
// skipped without the converter search: its Delivered is strictly
// below both final maxima, so it could win neither strict comparison
// of the ascending loop, and dropping it changes neither the first
// maxima nor the reverse checks that decide them. The bound is read at
// equivalentBound's O(n) over-estimate of the candidate's equivalent,
// from prefix sums of the Norton pairs built once per decision, so a
// pruned candidate costs its partition and that bound; only a survivor
// pays the O(N) EquivalentInto, and then runs the same pricing it
// always has.
func (e *Evaluator) configureAt(sc *scratch, arr *array.Array, exhaustive bool) (array.Config, Operating, error) {
	sc.priced, sc.work = 0, 0
	arr.NortonInto(&sc.nt)
	nmin, nmax, vGroup, err := e.groupWindow(&sc.nt)
	if err != nil {
		// No EMF or no feasible window: park in the all-parallel
		// configuration delivering nothing.
		return sc.parkConfig(arr.N()), Operating{}, nil
	}
	// Algorithm 1 partitions and prices every candidate at O(N).
	sc.work = int64(nmax-nmin+1) * int64(arr.N())
	if exhaustive {
		sc.work += fullScanDPWork(arr.N(), nmax)
	}
	if sc.bands.conv != e.Conv {
		sc.bands.build(e.Conv)
	}
	sc.impp = sc.nt.MPPCurrentsInto(sc.impp)
	sc.prefix = prefixSumsInto(sc.prefix, sc.impp)
	sc.pg = prefixSumsInto(sc.pg, sc.nt.G)
	sc.pj = prefixSumsInto(sc.pj, sc.nt.J)
	sc.eg, sc.ej = groupSumError(sc.pg), groupSumError(sc.pj)
	if exhaustive {
		// The DP cost Σ groupSum² is independent of the group count, so
		// one table build serves the whole candidate window; each n below
		// is a backward walk over it.
		if err := sc.dp.tableInto(sc.prefix, nmax); err != nil {
			return array.Config{}, Operating{}, err
		}
	}

	// Price the hint, or n̂, first. thr is the largest Delivered of a
	// clean candidate seen so far, −Inf (nothing pruned) until there is
	// one.
	first := sc.hint
	if first < nmin || first > nmax {
		first = int(math.Round(min(max(e.Conv.OutputVoltage/vGroup, float64(nmin)), float64(nmax))))
	}
	if err := checkPartition(arr.N(), first); err != nil {
		return array.Config{}, Operating{}, err
	}
	sc.first = resizeInts(sc.first, first)
	if err := sc.partitionInto(sc.first, exhaustive); err != nil {
		return array.Config{}, Operating{}, err
	}
	firstCfg := array.Config{N: arr.N(), Starts: sc.first}
	firstOp, ok, err := e.bestAt(sc, firstCfg)
	if err != nil {
		return array.Config{}, Operating{}, err
	}
	sc.priced++
	thr := math.Inf(-1)
	if ok {
		firstOp.Reverse = sc.nt.HasReverseCurrentAt(sc.eq, firstCfg, firstOp.Current)
		if !firstOp.Reverse {
			thr = firstOp.Delivered
		}
	}

	var bestCfg, cleanCfg array.Config
	var bestOp, cleanOp Operating
	haveAny, haveClean := false, false
	for n := nmin; n <= nmax; n++ {
		cfg, op := firstCfg, firstOp
		if n != first {
			if err := checkPartition(arr.N(), n); err != nil {
				return array.Config{}, Operating{}, err
			}
			sc.starts = resizeInts(sc.starts, n)
			if err := sc.partitionInto(sc.starts, exhaustive); err != nil {
				return array.Config{}, Operating{}, err
			}
			cfg = array.Config{N: arr.N(), Starts: sc.starts}
			// Delivered ≤ bound < thr: this candidate cannot win. The
			// bound rises with voc and falls with r, so it holds at
			// equivalentBound's (vocHi, rLo), read in O(n) before the
			// O(N) equivalent is built. A refused bound (a group that
			// may be broken), a NaN bound or a NaN threshold prunes
			// nothing.
			if thr > math.Inf(-1) {
				if vocHi, rLo, ok := sc.equivalentBound(sc.starts); ok && sc.bands.deliverBound(vocHi, rLo, thr) < thr {
					continue
				}
			}
			if err := sc.nt.EquivalentInto(&sc.eq, cfg); err != nil {
				return array.Config{}, Operating{}, err
			}
			op, ok = e.priceEq(sc)
			sc.priced++
			// Only a candidate that could become the clean winner needs
			// the reverse check. bestOp.Delivered ≥ cleanOp.Delivered
			// always holds, so any candidate that becomes the overall
			// winner passes this test too, and bestOp.Reverse is always
			// computed. (The first candidate's check above runs
			// unconditionally; a check this gate would skip cannot
			// change either comparison.)
			if ok && (!haveClean || op.Delivered > cleanOp.Delivered) {
				op.Reverse = sc.nt.HasReverseCurrentAt(sc.eq, cfg, op.Current)
			}
		}
		if !haveAny || op.Delivered > bestOp.Delivered {
			sc.best = append(sc.best[:0], cfg.Starts...)
			bestCfg = array.Config{N: arr.N(), Starts: sc.best}
			bestOp, haveAny = op, true
		}
		// The Fig. 3 current constraint: prefer configurations whose
		// operating point drives no module in reverse.
		if !op.Reverse && (!haveClean || op.Delivered > cleanOp.Delivered) {
			sc.clean = append(sc.clean[:0], cfg.Starts...)
			cleanCfg = array.Config{N: arr.N(), Starts: sc.clean}
			cleanOp, haveClean = op, true
			thr = max(thr, op.Delivered)
		}
	}
	if haveClean {
		bestCfg, bestOp = cleanCfg, cleanOp
	} else if !haveAny {
		return sc.parkConfig(arr.N()), Operating{}, nil
	}
	sc.hint = len(bestCfg.Starts)
	return bestCfg, bestOp, nil
}

// resizeInts returns s with length n, reallocating only when its
// capacity is short.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// configureTempsAt converts the sensed temperatures in place and runs
// configureAt over the scratch-assembled array — the allocation-free
// body shared by INOR's and DNOR's decision ticks.
func (e *Evaluator) configureTempsAt(sc *scratch, tempsC []float64, ambientC float64, exhaustive bool) (array.Config, Operating, error) {
	if len(tempsC) == 0 {
		return array.Config{}, Operating{}, fmt.Errorf("array: no operating points")
	}
	sc.ops = teg.OpsFromTempsInto(sc.ops, tempsC, ambientC)
	sc.arr = array.Array{Spec: e.Spec, Ops: sc.ops}
	return e.configureAt(sc, &sc.arr, exhaustive)
}
