// Package faults injects module failures into a simulation run: a Plan
// schedules open-circuit and short-circuit failures (and optional
// repairs) at given times, and a Tracker replays the plan into the
// per-module health vector the array model consumes. The study built on
// this (a scenario matrix's fault axis, `tegsim -study faults`) shows
// why a reconfigurable array tolerates failures a static one cannot —
// the natural extension of the paper's robustness argument.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tegrecon/internal/array"
)

// Named validation errors. Matrix expansion surfaces degenerate specs
// (zero counts, NaN durations from JSON arithmetic) that used to slip
// through the comparison-based checks — NaN compares false against
// everything, so `duration <= 0` accepted a NaN duration and produced a
// plan full of NaN event times. Callers match these with errors.Is.
var (
	// ErrBadCount marks a failure count outside [1, n].
	ErrBadCount = errors.New("faults: invalid failure count")
	// ErrBadDuration marks a non-positive or non-finite duration.
	ErrBadDuration = errors.New("faults: invalid duration")
	// ErrBadEvent marks an event with an out-of-range module, a
	// negative or non-finite time, or an unknown health state.
	ErrBadEvent = errors.New("faults: invalid event")
)

// Event is one health transition of one module.
type Event struct {
	// TimeS is the simulation time of the transition, seconds.
	TimeS float64
	// Module is the module index.
	Module int
	// To is the new health state (array.Healthy models a field repair).
	To array.ModuleHealth
}

// Plan is a time-ordered fault schedule.
type Plan struct {
	events []Event
	n      int // module count
}

// NewPlan validates and orders a schedule for an n-module array.
func NewPlan(n int, events []Event) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("faults: non-positive module count %d", n)
	}
	for _, e := range events {
		if e.Module < 0 || e.Module >= n {
			return nil, fmt.Errorf("%w: module %d of %d", ErrBadEvent, e.Module, n)
		}
		if !(e.TimeS >= 0) || math.IsInf(e.TimeS, 0) { // !(x>=0) also catches NaN
			return nil, fmt.Errorf("%w: time %g", ErrBadEvent, e.TimeS)
		}
		if e.To > array.FailedShort {
			return nil, fmt.Errorf("%w: unknown health state %d", ErrBadEvent, e.To)
		}
	}
	ordered := append([]Event(nil), events...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].TimeS < ordered[j].TimeS })
	return &Plan{events: ordered, n: n}, nil
}

// RandomPlan draws `count` failures uniformly over (0, duration) on
// distinct modules, alternating open and short failures — a convenient
// stress workload. The schedule is deterministic for a given seed.
// count must be in [1, n]; a storm with zero failures is a caller-side
// no-op, not a plan.
func RandomPlan(n int, count int, duration float64, seed int64) (*Plan, error) {
	if count <= 0 || count > n {
		return nil, fmt.Errorf("%w: %d failures for %d modules", ErrBadCount, count, n)
	}
	if !(duration > 0) || math.IsInf(duration, 0) { // !(x>0) also catches NaN
		return nil, fmt.Errorf("%w: %g", ErrBadDuration, duration)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	events := make([]Event, 0, count)
	for k := 0; k < count; k++ {
		mode := array.FailedOpen
		if k%2 == 1 {
			mode = array.FailedShort
		}
		events = append(events, Event{
			TimeS:  duration * (0.1 + 0.8*rng.Float64()),
			Module: perm[k],
			To:     mode,
		})
	}
	return NewPlan(n, events)
}

// Len returns the number of scheduled events.
func (p *Plan) Len() int { return len(p.events) }

// Events returns a copy of the schedule in replay order — the
// serialization surface for session checkpoints: NewPlan(p.Modules(),
// p.Events()) reconstructs an equivalent plan, and replaying it up to
// any time t yields the identical health vector (transitions are
// idempotent and time-ordered).
func (p *Plan) Events() []Event { return append([]Event(nil), p.events...) }

// Modules returns the module count the plan was built for.
func (p *Plan) Modules() int { return p.n }

// Tracker replays a Plan into a health vector as simulation time
// advances. The zero Tracker is not usable; build one with NewTracker.
type Tracker struct {
	plan   *Plan
	next   int
	health []array.ModuleHealth
}

// NewTracker starts a replay of plan with all modules healthy.
func NewTracker(plan *Plan) (*Tracker, error) {
	if plan == nil {
		return nil, fmt.Errorf("faults: nil plan")
	}
	return &Tracker{plan: plan, health: make([]array.ModuleHealth, plan.n)}, nil
}

// AdvanceTo applies every event with TimeS ≤ t and returns the current
// health vector (shared storage — callers must not mutate) and whether
// anything changed since the previous call. Time must not go backwards.
func (tr *Tracker) AdvanceTo(t float64) (health []array.ModuleHealth, changed bool, err error) {
	if tr.next > 0 && t < tr.plan.events[tr.next-1].TimeS {
		return nil, false, fmt.Errorf("faults: time went backwards to %g", t)
	}
	for tr.next < len(tr.plan.events) && tr.plan.events[tr.next].TimeS <= t {
		e := tr.plan.events[tr.next]
		if tr.health[e.Module] != e.To {
			tr.health[e.Module] = e.To
			changed = true
		}
		tr.next++
	}
	return tr.health, changed, nil
}
