package core

import (
	"fmt"
	"math"

	"tegrecon/internal/array"
	"tegrecon/internal/teg"
	"tegrecon/internal/units"
)

// scratch is the reusable work state of one decider. Every buffer the
// per-period decision path needs — operating points, the per-module
// Norton pairs, MPP currents, prefix sums, candidate partitions, the
// Thevenin equivalent and the delivered-power closure handed to the
// golden-section search — lives here and is overwritten in place each
// Decide, so a controller's steady-state decision performs no heap
// allocation.
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
	starts []int                // candidate partition under evaluation
	best   []int                // winner partition (any operating point)
	clean  []int                // winner partition without reverse-driven modules
	park   []int                // the all-parallel fallback config
	eq     array.Equivalent     // Thevenin equivalent of the candidate under pricing
	dp     dpBuffers            // EHTR's dynamic-programming state

	// deliver is the converter-weighted power at array output current i
	// for the equivalent currently in eq — the objective handed to the
	// coarse scan and golden-section search. Built once per scratch so
	// pricing a candidate captures no per-call closure.
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
// Norton pairs already in sc.nt: the equivalent circuit, the
// delivered-power closure and every intermediate buffer are reused, so
// pricing a candidate configuration allocates nothing and reads each
// module's 1/R and Voc/R instead of re-deriving them. Identical
// arithmetic to Best — the same coarse scan, the same golden-section
// refinement — so results are bit-equal.
func (e *Evaluator) bestAt(sc *scratch, cfg array.Config) (Operating, error) {
	if err := sc.nt.EquivalentInto(&sc.eq, cfg); err != nil {
		return Operating{}, err
	}
	if sc.eq.Voc <= 0 {
		return Operating{}, nil
	}
	isc := sc.eq.Voc / sc.eq.R
	// Coarse scan to bracket the global maximum.
	const coarse = 64
	bestI, bestP := 0.0, 0.0
	for k := 0; k <= coarse; k++ {
		i := isc * float64(k) / coarse
		if p := sc.deliver(i); p > bestP {
			bestP, bestI = p, i
		}
	}
	if bestP <= 0 {
		// Converter cannot run anywhere on this curve.
		return Operating{Reverse: false}, nil
	}
	lo := math.Max(0, bestI-isc/coarse)
	hi := math.Min(isc, bestI+isc/coarse)
	i, p := units.GoldenMax(sc.deliver, lo, hi, isc*1e-7)
	rev := sc.nt.HasReverseCurrentAt(sc.eq, cfg, i)
	v := sc.eq.VoltageAt(i)
	return Operating{
		Current:   i,
		Voltage:   v,
		ArrayW:    v * i,
		Delivered: p,
		Reverse:   rev,
	}, nil
}

// configureAt searches the group-count window through the scratch:
// greedy partitions (INOR/DNOR) or the exhaustive DP (EHTR when
// exhaustive is set), each candidate priced by bestAt over reused
// buffers. The Norton pairs depend only on the distribution, so they
// are built once here, before the group-count loop. The returned
// Config aliases the scratch winner buffers and is valid until the
// scratch's next use.
func (e *Evaluator) configureAt(sc *scratch, arr *array.Array, exhaustive bool) (array.Config, Operating, error) {
	nmin, nmax, err := e.GroupWindow(arr)
	if err != nil {
		// No EMF or no feasible window: park in the all-parallel
		// configuration delivering nothing.
		return sc.parkConfig(arr.N()), Operating{}, nil
	}
	arr.NortonInto(&sc.nt)
	sc.impp = arr.MPPCurrentsInto(sc.impp)
	sc.prefix = prefixSumsInto(sc.prefix, sc.impp)
	if exhaustive {
		// The DP cost Σ groupSum² is independent of the group count, so
		// one table build serves the whole candidate window; each n below
		// is a backward walk over it.
		if err := sc.dp.tableInto(sc.prefix, nmax); err != nil {
			return array.Config{}, Operating{}, err
		}
	}

	var bestCfg, cleanCfg array.Config
	var bestOp, cleanOp Operating
	haveAny, haveClean := false, false
	for n := nmin; n <= nmax; n++ {
		if err := checkPartition(arr.N(), n); err != nil {
			return array.Config{}, Operating{}, err
		}
		if cap(sc.starts) < n {
			sc.starts = make([]int, n)
		}
		sc.starts = sc.starts[:n]
		if exhaustive {
			if err := sc.dp.reconstructInto(sc.starts); err != nil {
				return array.Config{}, Operating{}, err
			}
		} else {
			greedyPartitionInto(sc.starts, sc.prefix)
		}
		cfg := array.Config{N: arr.N(), Starts: sc.starts}
		op, err := e.bestAt(sc, cfg)
		if err != nil {
			return array.Config{}, Operating{}, err
		}
		if !haveAny || op.Delivered > bestOp.Delivered {
			sc.best = append(sc.best[:0], sc.starts...)
			bestCfg = array.Config{N: arr.N(), Starts: sc.best}
			bestOp, haveAny = op, true
		}
		// The Fig. 3 current constraint: prefer configurations whose
		// operating point drives no module in reverse.
		if !op.Reverse && (!haveClean || op.Delivered > cleanOp.Delivered) {
			sc.clean = append(sc.clean[:0], sc.starts...)
			cleanCfg = array.Config{N: arr.N(), Starts: sc.clean}
			cleanOp, haveClean = op, true
		}
	}
	if haveClean {
		return cleanCfg, cleanOp, nil
	}
	if haveAny {
		return bestCfg, bestOp, nil
	}
	return sc.parkConfig(arr.N()), Operating{}, nil
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
