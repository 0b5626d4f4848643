package sim

import (
	"context"
	"testing"
	"time"

	"tegrecon/internal/drive"
)

func TestPhaseTimingsOffByDefault(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	res, err := Run(context.Background(), sys, tr, newEHTR(t, sys), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != (PhaseTimings{}) {
		t.Errorf("phase timings recorded with sampling off: %+v", res.Phases)
	}
}

func TestPhaseTimingsSampleInterval(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.PhaseSampleEvery = 16
	res, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	ticks := ticksFor(tr, opts.TickSeconds)
	want := int64((ticks + 15) / 16) // steps 0, 16, 32, ...
	if res.Phases.Samples != want {
		t.Errorf("Samples = %d over %d ticks at 1-in-16, want %d", res.Phases.Samples, ticks, want)
	}
	if res.Phases.TotalNs() <= 0 {
		t.Errorf("sampled run recorded no phase time: %+v", res.Phases)
	}
}

func TestPhaseTimingsValidate(t *testing.T) {
	opts := DefaultOptions()
	opts.PhaseSampleEvery = -1
	if err := opts.Validate(); err == nil {
		t.Errorf("negative PhaseSampleEvery accepted")
	}
}

func TestPhaseTimingsAdd(t *testing.T) {
	a := PhaseTimings{Samples: 1, TempsNs: 2, SenseNs: 3, DecideNs: 4, ActNs: 5}
	a.Add(PhaseTimings{Samples: 10, TempsNs: 20, SenseNs: 30, DecideNs: 40, ActNs: 50})
	want := PhaseTimings{Samples: 11, TempsNs: 22, SenseNs: 33, DecideNs: 44, ActNs: 55}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	if want.TotalNs() != 22+33+44+55 {
		t.Errorf("TotalNs = %d", want.TotalNs())
	}
}

// TestPhaseTimingsCoverStepWallTime is the acceptance check: with every
// tick sampled, the four phase timers must account for at least 90% of
// the wall time the caller measures around Step — i.e. the phases ARE
// the step, and the timers do not leak meaningful work into untimed
// gaps.
func TestPhaseTimingsCoverStepWallTime(t *testing.T) {
	sys := DefaultSystem()
	cfg := drive.DefaultSynthConfig() // WLTC-shaped synthetic cycle
	cfg.Duration = 120
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.PhaseSampleEvery = 1
	opts.StartTime = tr.Times[0]
	sess, err := NewSession(sys, newEHTR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	var wall time.Duration
	for k := 0; k < ticksFor(tr, opts.TickSeconds); k++ {
		cond, err := drive.ConditionsAt(tr, sess.Now())
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, err := sess.Step(cond); err != nil {
			t.Fatal(err)
		}
		wall += time.Since(t0)
	}
	p := sess.PhaseTimings()
	if int64(p.Samples) != int64(sess.Steps()) {
		t.Fatalf("sampled %d of %d steps at interval 1", p.Samples, sess.Steps())
	}
	if cov := float64(p.TotalNs()) / float64(wall.Nanoseconds()); cov < 0.9 {
		t.Errorf("phase timings cover %.1f%% of Step wall time, want >= 90%% (%+v over %v)", cov*100, p, wall)
	}
}

// TestSessionStepSamplingAllocationFree pins the sampled path itself to
// zero allocations: timing a phase is two monotonic clock reads, not a
// heap object.
func TestSessionStepSamplingAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations the production build does not pay")
	}
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.DeterministicRuntime = true
	opts.KeepTicks = false
	opts.PhaseSampleEvery = 1
	conds := benchConds(t, tr, opts.TickSeconds)
	sess, err := NewSession(sys, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range conds { // warm the scratch to steady state
		if _, err := sess.Step(cond); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Step(conds[i%len(conds)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("sampled Step allocates %.1f allocs/op, want 0", allocs)
	}
}
