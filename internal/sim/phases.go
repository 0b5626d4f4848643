package sim

// PhaseTimings accumulates sampled wall-clock nanoseconds per tick
// phase (temps/sense/decide/act). Sampling is controlled by
// Options.PhaseSampleEvery: every N-th control period, each phase
// method brackets its work with a monotonic-clock read and adds the
// elapsed nanoseconds here. With sampling off the accumulator is never
// touched and Step stays on its zero-allocation, zero-branch-cost
// path.
//
// The timings are observability, not physics: they never enter
// serialized results, checkpoints, or the cache identity of a run.
// They answer "which phase dominates this workload" — e.g. whether an
// exhaustive controller's Decide dwarfs the thermal solve — without a
// profiler attached.
type PhaseTimings struct {
	// Samples counts fully-timed control periods. One sample spans all
	// four phases of the same tick (the phase methods key their timing
	// decision off the same step counter).
	Samples int64
	// TempsNs is sampled time in the radiator solve (tickTemps).
	TempsNs int64
	// SenseNs is sampled time building the controller's noisy view.
	SenseNs int64
	// DecideNs is sampled time inside the controller's Decide.
	DecideNs int64
	// ActNs is sampled time in the plant-and-accounting phase.
	ActNs int64
}

// TotalNs returns the summed sampled nanoseconds across all phases.
func (p PhaseTimings) TotalNs() int64 {
	return p.TempsNs + p.SenseNs + p.DecideNs + p.ActNs
}

// Add folds another accumulator into this one — how a batch or a
// service rolls per-session timings up into one aggregate.
func (p *PhaseTimings) Add(q PhaseTimings) {
	p.Samples += q.Samples
	p.TempsNs += q.TempsNs
	p.SenseNs += q.SenseNs
	p.DecideNs += q.DecideNs
	p.ActNs += q.ActNs
}

// PhaseTimings returns the session's sampled phase accumulator so far.
func (s *Session) PhaseTimings() PhaseTimings { return s.phases }

// phaseTimed reports whether the current control period is a sampled
// one. Each phase method evaluates it independently; all four reads
// within one tick see the same step counter (tickAct increments it
// last) and therefore agree.
func (s *Session) phaseTimed() bool {
	return s.opts.PhaseSampleEvery > 0 && s.steps%s.opts.PhaseSampleEvery == 0
}
