package core

import (
	"fmt"

	"tegrecon/internal/units"
)

// EHTR reconstructs the prior-work Efficient Heuristic TEG
// Reconfiguration algorithm (Baek et al., ISLPED 2017) that the paper
// benchmarks against. The original is characterised by near-optimal
// output, O(N³) runtime and unconditional reconfiguration every control
// period; this reconstruction searches the same series-group window but
// replaces INOR's O(N) greedy partition with exhaustive dynamic
// programming over all consecutive partitions, one shared table for
// every candidate group count (dpBuffers.tableInto, O(N·(N+nmax))).
// ComputeTime charges the original's work instead: INOR's count plus
// the full-scan DP's O(nmax·N²) evaluations (fullScanDPWork).
// docs/ARCHITECTURE.md ("Shared-table EHTR partitioning") derives the
// shared table and why its choices match the full scan.
type EHTR struct {
	eval *Evaluator
	sc   *scratch
}

// NewEHTR builds the controller.
func NewEHTR(eval *Evaluator) (*EHTR, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	return &EHTR{eval: eval, sc: newScratch(eval)}, nil
}

// Name implements Controller.
func (c *EHTR) Name() string { return "EHTR" }

// Reset implements Controller. EHTR carries only a pricing hint that
// never changes a decision (its scratch, the DP work arrays included,
// is overwritten each Decide); Reset clears that hint.
func (c *EHTR) Reset() { c.sc.hint = 0 }

// Decide implements Controller: exhaustive-partition reconfiguration
// every period. The returned Config aliases the controller's scratch
// and is valid until the next Decide.
func (c *EHTR) Decide(tick int, tempsC []float64, ambientC float64) (Decision, error) {
	cfg, op, err := c.eval.configureTempsAt(c.sc, tempsC, ambientC, true)
	if err != nil {
		return Decision{}, err
	}
	// Like INOR, EHTR reprograms the fabric every period (Section VI).
	return Decision{
		Config:      cfg,
		Expected:    op.Delivered,
		Switched:    true,
		ComputeTime: units.WorkTime(c.sc.work),
	}, nil
}
