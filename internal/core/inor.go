package core

import "fmt"

// INOR is Algorithm 1 — Instantaneous Near-Optimal TEG Array
// Reconfiguration. Given the sensed temperature distribution it computes
// every module's MPP current, and for each feasible series-group count
// n ∈ [nmin, nmax] (the converter-efficiency window of Section III.B)
// greedily partitions the chain into groups of balanced summed MPP
// current; the candidate with the highest converter-delivered MPP wins.
// The partition is O(N) and the n-range is fixed by the converter, so
// one invocation is O(N) — and, through the per-controller scratch,
// allocation-free at steady state. ComputeTime prices nmax−nmin+1
// candidates at N units each.
type INOR struct {
	eval *Evaluator
	sc   *scratch
}

// NewINOR builds the controller.
func NewINOR(eval *Evaluator) (*INOR, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	return &INOR{eval: eval, sc: newScratch(eval)}, nil
}

// Name implements Controller.
func (c *INOR) Name() string { return "INOR" }

// Reset implements Controller. INOR is memoryless between periods (its
// scratch buffers are fully overwritten each Decide), so there is no
// state to clear.
func (c *INOR) Reset() {}

// Decide implements Controller: a full reconfiguration every period.
// Per Section VI, INOR "switches at every time point" — every decision
// is a fabric reprogram (Switched is always true) even when the computed
// topology happens to match the incumbent; that unconditional actuation
// is exactly the overhead DNOR eliminates. The returned Config aliases
// the controller's scratch and is valid until the next Decide.
func (c *INOR) Decide(tick int, tempsC []float64, ambientC float64) (Decision, error) {
	cfg, op, err := c.eval.configureTempsAt(c.sc, tempsC, ambientC, false)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Config:      cfg,
		Expected:    op.Delivered,
		Switched:    true,
		ComputeTime: workTime(c.sc.work),
	}, nil
}
