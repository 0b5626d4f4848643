package sim

import (
	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/core"
	"tegrecon/internal/teg"
)

// scratch is the per-session reusable work state of the tick loop:
// every buffer Step needs — the module-bank temperature vector, the
// noisy controller view, the operating points, their Norton pairs, the
// Thevenin equivalent, the module currents of the efficiency
// accounting, the copy of the previous topology and the delivered-power
// closure handed to the MPPT — lives here and is overwritten in place
// each control period, so a steady-state Step performs no heap
// allocation (see tegbench's session_step suite and
// TestSessionStepAllocationFree).
//
// Ownership: NewSession builds one scratch per Session, and the scratch
// shares the session's single-goroutine contract. Reuse is per tick
// inside that Session, never across runs: a batch job's session builds
// its own, exactly like a standalone run's.
type scratch struct {
	temps      []float64            // true module hot-side temperatures, °C
	sensed     []float64            // noisy controller view of temps
	ops        []teg.OperatingPoint // plant operating points from temps
	currents   []float64            // per-module currents for the efficiency accounting
	prevStarts []int                // session-owned copy of the previous topology
	nt         array.Norton         // per-module Norton pairs of ops (and health)
	eq         array.Equivalent     // Thevenin equivalent of the decided config
	arr        array.Array          // plant array assembled in place over ops
	conv       converter.Model      // this tick's converter (charge stage may retarget it)

	// Per-tick transients carried between the phase methods of
	// Session.Step (tickTemps → tickSense → tickDecide → tickAct), so
	// each phase can be timed on its own (PhaseTimings). health aliases
	// the fault tracker's storage; dec.Config aliases the controller's
	// (both stable until the owning session's next tick).
	health []array.ModuleHealth // this tick's true module health, nil when unfaulted
	dec    core.Decision        // this tick's controller decision

	// deliver is the converter-weighted delivered power at array output
	// current i for the equivalent currently in eq — the P(I) objective
	// the MPPT tracks. Built once per scratch so Track captures no
	// per-tick closure.
	deliver func(i float64) float64
}

// newScratch builds an empty scratch with its delivered-power closure
// bound to the scratch's own equivalent and converter fields.
func newScratch() *scratch {
	sc := &scratch{}
	sc.deliver = func(i float64) float64 {
		v := sc.eq.VoltageAt(i)
		return sc.conv.OutputPower(v, v*i)
	}
	return sc
}

// setPrev records cfg as the previous topology, copying its group
// starts into session-owned storage: the controller's next Decide may
// overwrite the buffer backing cfg (see core.Decision).
func (sc *scratch) setPrev(cfg array.Config) array.Config {
	sc.prevStarts = append(sc.prevStarts[:0], cfg.Starts...)
	return array.Config{N: cfg.N, Starts: sc.prevStarts}
}
