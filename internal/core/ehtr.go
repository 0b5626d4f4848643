package core

import (
	"fmt"
	"time"
)

// EHTR reconstructs the prior-work Efficient Heuristic TEG
// Reconfiguration algorithm (Baek et al., ISLPED 2017) that the paper
// benchmarks against. The original is characterised by near-optimal
// output, O(N³) runtime and unconditional reconfiguration every control
// period; this reconstruction searches the same series-group window but
// replaces INOR's O(N) greedy partition with exhaustive dynamic
// programming over all consecutive partitions. One table serves every
// candidate group count (dpBuffers.tableInto). Its first rows, where
// Knuth's window is nearly a full scan, are solved by monotone divide
// and conquer at O(N log N) each; there are O(√(N/log N)) of them (4 at
// N = 500). The rest are bounded by Knuth's window, O(N·(N+nmax)) in
// total, which stays the bound per decision. The measured premium over
// INOR is a small factor, not the cubic growth the paper reports for
// the original. docs/ARCHITECTURE.md ("Shared-table EHTR partitioning")
// derives the shared table and why its choices match the full scan.
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

// Reset implements Controller. EHTR is memoryless between periods (its
// scratch — including the DP work arrays — is fully overwritten each
// Decide), so there is no state to clear.
func (c *EHTR) Reset() {}

// Decide implements Controller: exhaustive-partition reconfiguration
// every period. The returned Config aliases the controller's scratch
// and is valid until the next Decide.
func (c *EHTR) Decide(tick int, tempsC []float64, ambientC float64) (Decision, error) {
	start := time.Now()
	cfg, op, err := c.eval.configureTempsAt(c.sc, tempsC, ambientC, true)
	if err != nil {
		return Decision{}, err
	}
	// Like INOR, EHTR reprograms the fabric every period (Section VI).
	return Decision{
		Config:      cfg,
		Expected:    op.Delivered,
		Switched:    true,
		ComputeTime: time.Since(start),
	}, nil
}
