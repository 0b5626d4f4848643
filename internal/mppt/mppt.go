// Package mppt implements the perturb-and-observe maximum power point
// tracker of Femia et al. ("Optimization of perturb and observe maximum
// power point tracking method", IEEE TPEL 2005) that the paper's charger
// uses (Section III.B): the controller perturbs the array output current
// command, observes the delivered power, keeps walking in the direction
// that increased power, and shrinks the perturbation as it brackets the
// maximum.
//
// The tracker is deliberately generic — it optimises any P(I) the caller
// supplies — so the simulator can hand it either raw array power or
// converter-weighted delivered power.
package mppt

import (
	"fmt"
	"math"
)

// PowerFunc returns the delivered power at an output-current command.
type PowerFunc func(current float64) float64

// Options tune the tracker.
type Options struct {
	// InitialStep is the first current perturbation in amperes.
	InitialStep float64
	// MinStep terminates refinement: once the step shrinks below it the
	// tracker reports convergence.
	MinStep float64
	// Shrink is the step multiplier applied when the walk reverses
	// direction (the adaptive rule of Femia et al.), in (0, 1).
	Shrink float64
	// Grow is the step multiplier applied while power keeps increasing,
	// ≥ 1; modest growth accelerates convergence after large MPP moves.
	Grow float64
	// MaxIters caps the number of perturbations per Track call.
	MaxIters int
	// IMin and IMax bound the current command.
	IMin, IMax float64
}

// DefaultOptions returns tuning that settles on the array MPP of the
// experimental system in a few dozen perturbations.
func DefaultOptions(iMax float64) Options {
	return Options{
		InitialStep: iMax / 20,
		MinStep:     iMax / 5000,
		Shrink:      0.5,
		Grow:        1.2,
		MaxIters:    200,
		IMin:        0,
		IMax:        iMax,
	}
}

// Validate rejects inconsistent options.
func (o Options) Validate() error {
	if o.InitialStep <= 0 || o.MinStep <= 0 || o.MinStep > o.InitialStep {
		return fmt.Errorf("mppt: bad steps initial=%g min=%g", o.InitialStep, o.MinStep)
	}
	if o.Shrink <= 0 || o.Shrink >= 1 {
		return fmt.Errorf("mppt: shrink %g outside (0,1)", o.Shrink)
	}
	if o.Grow < 1 {
		return fmt.Errorf("mppt: grow %g below 1", o.Grow)
	}
	if o.MaxIters <= 0 {
		return fmt.Errorf("mppt: non-positive iteration cap %d", o.MaxIters)
	}
	if o.IMax <= o.IMin {
		return fmt.Errorf("mppt: bad current range [%g, %g]", o.IMin, o.IMax)
	}
	return nil
}

// Result reports a tracking run.
type Result struct {
	Current    float64 // converged current command, A
	Power      float64 // power at that command, W
	Iterations int     // perturbations spent
	Converged  bool    // step shrank below MinStep before MaxIters
}

// Tracker carries P&O state between control periods so the charger
// resumes from its previous operating point after small thermal drift
// (and restarts cleanly after a reconfiguration).
type Tracker struct {
	opts Options
	last float64 // last current command
	ok   bool    // last is valid
}

// New constructs a tracker.
func New(opts Options) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Tracker{opts: opts}, nil
}

// Retune revalidates and installs new options and forgets the previous
// operating point — equivalent to replacing the tracker with
// New(opts), but reusing the existing allocation. The simulator retunes
// after every topology change (each reconfiguration moves the search
// window's short-circuit current), which for the always-switching
// schemes means once per control period; reusing the tracker keeps that
// off the heap.
func (t *Tracker) Retune(opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	t.opts = opts
	t.last = 0
	t.ok = false
	return nil
}

// Track runs perturb-and-observe on f and returns the located operating
// point. Tracking starts from the previous converged command when
// available, otherwise from the midpoint of the current range.
func (t *Tracker) Track(f PowerFunc) Result {
	o := t.opts
	i := (o.IMin + o.IMax) / 2
	step := o.InitialStep
	if t.ok {
		// Warm start: resume near the previous command with a reduced
		// perturbation — the adaptive-step idea of Femia et al. The MPP
		// rarely moves far between control periods, so most of the
		// coarse search can be skipped.
		i = clamp(t.last, o.IMin, o.IMax)
		if warm := o.InitialStep / 8; warm > o.MinStep {
			step = warm
		}
	}
	dir := 1.0
	p := f(i)
	iters := 0
	converged := false
	for ; iters < o.MaxIters; iters++ {
		if step < o.MinStep {
			converged = true
			break
		}
		next := clamp(i+dir*step, o.IMin, o.IMax)
		pn := f(next)
		if pn > p {
			// Keep walking, accelerate gently.
			i, p = next, pn
			step = math.Min(step*o.Grow, (o.IMax-o.IMin)/2)
		} else {
			// Overshot: reverse and refine.
			dir = -dir
			step *= o.Shrink
		}
	}
	t.last, t.ok = i, true
	return Result{Current: i, Power: p, Iterations: iters, Converged: converged}
}

// TrackerState is the complete serializable state of a Tracker — its
// tuning and its warm-start memory. Capturing and restoring it around a
// process boundary reproduces the tracker bit-for-bit, which the
// simulator's session checkpoints (sim.SessionState) rely on: Track's
// walk is a pure function of (Options, last, ok) and the power curve.
type TrackerState struct {
	Options Options
	// Last is the previous converged current command; meaningful only
	// when OK is set.
	Last float64
	// OK marks Last as a valid warm-start point.
	OK bool
}

// State snapshots the tracker for a checkpoint.
func (t *Tracker) State() TrackerState {
	return TrackerState{Options: t.opts, Last: t.last, OK: t.ok}
}

// FromState rebuilds a tracker from a snapshot, validating the tuning
// the same way New does.
func FromState(st TrackerState) (*Tracker, error) {
	tr, err := New(st.Options)
	if err != nil {
		return nil, err
	}
	tr.last, tr.ok = st.Last, st.OK
	return tr, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
