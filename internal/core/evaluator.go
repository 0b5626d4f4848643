// Package core implements the paper's contribution: the O(N)
// Instantaneous Near-Optimal Reconfiguration algorithm (INOR,
// Algorithm 1), the prediction-incorporated Durable Near-Optimal
// Reconfiguration algorithm (DNOR, Algorithm 2), a reconstruction of the
// prior-work Efficient Heuristic TEG Reconfiguration (EHTR, Baek et al.
// ISLPED'17) used as the comparison point, and the static baseline
// configuration — all behind a common Controller interface the
// simulator drives.
package core

import (
	"fmt"
	"math"
	"time"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/teg"
)

// Evaluator prices candidate configurations: it finds the operating
// current that maximises the power *delivered through the converter*
// (not the raw array MPP — Section III.B's efficiency argument), and
// flags reverse-current violations.
type Evaluator struct {
	Spec teg.ModuleSpec
	Conv converter.Model
}

// NewEvaluator validates and builds an evaluator.
func NewEvaluator(spec teg.ModuleSpec, conv converter.Model) (*Evaluator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := conv.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{Spec: spec, Conv: conv}, nil
}

// Operating describes the best feasible operating point of one
// configuration.
type Operating struct {
	Current   float64 // array output current, A
	Voltage   float64 // array terminal voltage, V
	ArrayW    float64 // power leaving the array, W
	Delivered float64 // power after the converter, W
	Reverse   bool    // a module is reverse-driven at this point
}

// Best locates the delivered-power maximum of cfg on the given array.
// The search is a coarse scan refined by golden section, robust to the
// converter's input-window cliff; currents that reverse-drive any module
// are excluded unless nothing else is feasible. Best is the convenience
// form for one-off questions; the deciders run the same arithmetic
// through their per-controller scratch (bestAt) so the per-period hot
// path allocates nothing.
func (e *Evaluator) Best(arr *array.Array, cfg array.Config) (Operating, error) {
	sc := newScratch(e)
	arr.NortonInto(&sc.nt)
	op, ok, err := e.bestAt(sc, cfg)
	if ok {
		op.Reverse = sc.nt.HasReverseCurrentAt(sc.eq, cfg, op.Current)
	}
	return op, err
}

// groupWindow derives Algorithm 1's [nmin, nmax] from the converter's
// usable input band and the array's typical per-group MPP voltage (a
// balanced parallel group of k modules keeps its MPP voltage near the
// mean module Voc/2, independent of k). It also returns that nominal
// per-group voltage, which configureAt uses to pick the candidate it
// prices first.
func (e *Evaluator) groupWindow(arr *array.Array) (nmin, nmax int, vGroup float64, err error) {
	mean := 0.0
	for _, op := range arr.Ops {
		mean += e.Spec.Voc(op)
	}
	mean /= float64(arr.N())
	vGroup = mean / 2
	if math.IsNaN(vGroup) || math.IsInf(vGroup, 0) {
		// A NaN or infinite sensed temperature: refuse it here rather
		// than leave the window to int() of a non-finite quotient,
		// whose result Go leaves to the implementation.
		return 0, 0, 0, fmt.Errorf("core: non-finite mean group voltage %g", vGroup)
	}
	if vGroup <= 0 {
		return 0, 0, 0, fmt.Errorf("core: array has no EMF (all modules at ambient)")
	}
	nmin, nmax, err = e.Conv.GroupCountWindow(vGroup, arr.N())
	return nmin, nmax, vGroup, err
}

// Decision is a controller's output for one control period.
//
// Config may alias the controller's internal scratch buffers: it is
// valid until the controller's next Decide call, after which its
// contents may be overwritten in place. A caller that retains a
// configuration across periods (the simulator keeps the previous
// topology for overhead pricing) must copy Config.Starts into storage
// it owns.
type Decision struct {
	Config      array.Config  // configuration to apply for this period
	Expected    float64       // controller's expected delivered power, W
	Switched    bool          // topology differs from the previous period
	ComputeTime time.Duration // runtime priced from counted work (workTime)
}

// workUnitNs prices one unit of counted controller work, calibrated
// once from tegbench's decide_live_inor_n100 (docs/ARCHITECTURE.md,
// "Controller runtime"); kernel speed-ups do not move it.
const workUnitNs = 8.05

func workTime(units int64) time.Duration { return time.Duration(float64(units) * workUnitNs) }

// fullScanDPWork counts the cost evaluations of the prior work's
// full-scan DP table (rows 1…nmax over nMod modules): nMod for row 1
// and m(m+1)/2 for row j, m = nMod−j+1, which sum to the tetrahedral
// numbers Te(nMod−1) − Te(nMod−nmax), Te(m) = m(m+1)(m+2)/6.
func fullScanDPWork(nMod, nmax int) int64 {
	te := func(m int64) int64 { return m * (m + 1) * (m + 2) / 6 }
	n := int64(nMod)
	return n + te(n-1) - te(n-int64(nmax))
}

// Controller is the common interface of INOR, DNOR, EHTR and the static
// baseline. Decide is invoked once per control period with the sensed
// per-module hot-side temperatures.
//
// Checkpoint contract: a controller that carries state across control
// periods (an incumbent configuration, predictor history) must also
// implement StateCarrier, or sessions using it cannot be checkpointed
// faithfully — the checkpoint machinery treats non-carriers as
// memoryless (which INOR, EHTR and the baseline genuinely are).
type Controller interface {
	// Name labels the scheme in reports ("DNOR", "INOR", …).
	Name() string
	// Decide returns the configuration for the coming period.
	Decide(tick int, tempsC []float64, ambientC float64) (Decision, error)
	// Reset clears internal state (history, previous configuration).
	Reset()
}
