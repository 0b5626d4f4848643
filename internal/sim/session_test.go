package sim

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/trace"
)

// driveSession replays a trace through a Session by hand — the loop Run
// now encapsulates — so tests can compare the two paths.
func driveSession(t *testing.T, sys *System, tr *trace.Trace, ctrl core.Controller, opts Options) *Result {
	t.Helper()
	opts.StartTime = tr.Times[0]
	sess, err := NewSession(sys, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	ticks := int(math.Floor(tr.Duration()/opts.TickSeconds)) + 1
	for k := 0; k < ticks; k++ {
		cond, err := drive.ConditionsAt(tr, sess.Now())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(cond); err != nil {
			t.Fatal(err)
		}
	}
	return sess.Result()
}

func TestSessionMatchesRunBitIdentical(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()

	ran, err := Run(context.Background(), sys, tr, newDNOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	stepped := driveSession(t, sys, tr, newDNOR(t, sys), opts)

	if ran.EnergyOutJ != stepped.EnergyOutJ {
		t.Errorf("energy: Run %v, Session %v", ran.EnergyOutJ, stepped.EnergyOutJ)
	}
	if ran.OverheadJ != stepped.OverheadJ {
		t.Errorf("overhead: Run %v, Session %v", ran.OverheadJ, stepped.OverheadJ)
	}
	if ran.IdealEnergyJ != stepped.IdealEnergyJ {
		t.Errorf("ideal: Run %v, Session %v", ran.IdealEnergyJ, stepped.IdealEnergyJ)
	}
	if ran.AvgTEGEff != stepped.AvgTEGEff {
		t.Errorf("efficiency: Run %v, Session %v", ran.AvgTEGEff, stepped.AvgTEGEff)
	}
	if ran.SwitchEvents != stepped.SwitchEvents || ran.SwitchToggles != stepped.SwitchToggles {
		t.Errorf("switching: Run %d/%d, Session %d/%d",
			ran.SwitchEvents, ran.SwitchToggles, stepped.SwitchEvents, stepped.SwitchToggles)
	}
	if len(ran.Ticks) != len(stepped.Ticks) {
		t.Fatalf("tick counts differ: %d vs %d", len(ran.Ticks), len(stepped.Ticks))
	}
	for i := range ran.Ticks {
		if ran.Ticks[i] != stepped.Ticks[i] {
			t.Fatalf("tick %d differs: Run %+v, Session %+v", i, ran.Ticks[i], stepped.Ticks[i])
		}
	}
}

func TestSessionResultIsACheckpoint(t *testing.T) {
	// Result may be read mid-run and stepping must continue unharmed.
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()

	full, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.StartTime = tr.Times[0]
	sess, err := NewSession(sys, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	ticks := int(math.Floor(tr.Duration()/opts.TickSeconds)) + 1
	var midEnergy float64
	for k := 0; k < ticks; k++ {
		cond, err := drive.ConditionsAt(tr, sess.Now())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(cond); err != nil {
			t.Fatal(err)
		}
		if k == ticks/2 {
			mid := sess.Result()
			midEnergy = mid.EnergyOutJ
			if mid.AvgRuntime <= 0 {
				t.Error("mid-run checkpoint reports no priced controller runtime")
			}
		}
	}
	res := sess.Result()
	if midEnergy <= 0 || midEnergy >= res.EnergyOutJ {
		t.Errorf("checkpoint energy %v not inside (0, %v)", midEnergy, res.EnergyOutJ)
	}
	if res.EnergyOutJ != full.EnergyOutJ {
		t.Errorf("mid-run checkpoint perturbed the run: %v vs %v", res.EnergyOutJ, full.EnergyOutJ)
	}
	if sess.Steps() != ticks {
		t.Errorf("Steps() = %d, want %d", sess.Steps(), ticks)
	}
}

func TestStreamingMatchesBufferedRun(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()

	buffered, err := Run(context.Background(), sys, tr, newDNOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}

	streamOpts := opts
	streamOpts.KeepTicks = false
	var streamed []Tick
	streamOpts.OnTick = func(tk Tick) { streamed = append(streamed, tk) }
	stream, err := Run(context.Background(), sys, tr, newDNOR(t, sys), streamOpts)
	if err != nil {
		t.Fatal(err)
	}

	if len(stream.Ticks) != 0 {
		t.Errorf("KeepTicks=false buffered %d ticks", len(stream.Ticks))
	}
	if len(streamed) != len(buffered.Ticks) {
		t.Fatalf("observer saw %d ticks, buffered run kept %d", len(streamed), len(buffered.Ticks))
	}
	for i := range streamed {
		if streamed[i] != buffered.Ticks[i] {
			t.Fatalf("tick %d: streamed %+v, buffered %+v", i, streamed[i], buffered.Ticks[i])
		}
	}
	if stream.EnergyOutJ != buffered.EnergyOutJ || stream.OverheadJ != buffered.OverheadJ ||
		stream.IdealEnergyJ != buffered.IdealEnergyJ || stream.AvgTEGEff != buffered.AvgTEGEff ||
		stream.SwitchEvents != buffered.SwitchEvents || stream.SwitchToggles != buffered.SwitchToggles ||
		stream.AvgRuntime != buffered.AvgRuntime {
		t.Errorf("streaming summary differs from buffered:\n%+v\n%+v", stream, buffered)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"NaN tick", func(o *Options) { o.TickSeconds = math.NaN() }},
		{"+Inf tick", func(o *Options) { o.TickSeconds = math.Inf(1) }},
		{"zero tick", func(o *Options) { o.TickSeconds = 0 }},
		{"negative tick", func(o *Options) { o.TickSeconds = -0.5 }},
		{"NaN noise", func(o *Options) { o.SensorNoiseC = math.NaN() }},
		{"Inf noise", func(o *Options) { o.SensorNoiseC = math.Inf(1) }},
		{"negative noise", func(o *Options) { o.SensorNoiseC = -0.1 }},
		{"noise over the bound", func(o *Options) { o.SensorNoiseC = MaxSensorNoiseC + 1 }},
		{"NaN start", func(o *Options) { o.StartTime = math.NaN() }},
	}
	for _, tc := range cases {
		opts := DefaultOptions()
		tc.mutate(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, opts)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options rejected: %v", err)
	}
}

func TestRunRejectsNaNTick(t *testing.T) {
	// The original `opts.TickSeconds <= 0` check let NaN through (NaN
	// comparisons are false) into the tick-count arithmetic.
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.TickSeconds = math.NaN()
	if _, err := Run(context.Background(), sys, tr, newBaseline(t, sys), opts); err == nil {
		t.Error("NaN tick should error")
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	ticksSeen := 0
	opts.OnTick = func(Tick) {
		ticksSeen++
		if ticksSeen == 10 {
			cancel()
		}
	}
	_, err := Run(ctx, sys, tr, newINOR(t, sys), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// The per-tick check fires before the next Step: exactly one more
	// tick never runs, let alone the remaining ~230.
	if ticksSeen != 10 {
		t.Errorf("simulated %d ticks after cancellation at 10", ticksSeen)
	}
}

func TestRunContextPreCanceled(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sys, tr, newBaseline(t, sys), DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestBatchContextCancelNoGoroutineLeak(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	// Cancel once the pool is demonstrably mid-flight. OnTick fires from
	// every worker goroutine, so the trigger must be race-safe.
	var once sync.Once
	opts.OnTick = func(Tick) { once.Do(cancel) }
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Sys: sys, Trace: tr, Ctrl: newBaseline(t, sys), Opts: opts}
	}
	start := time.Now()
	_, err := Batch{Workers: 4}.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}

	// Run must have joined every worker before returning; give the
	// runtime a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchSingleWorkerCancel covers cancellation at Workers: 1, which
// runs on one pool goroutine like any other worker count: a cancel
// mid-run and a cancel before the first claim both surface as
// context.Canceled with no results, and the pool goroutine is joined.
func TestBatchSingleWorkerCancel(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := DefaultOptions()
	var once sync.Once
	opts.OnTick = func(Tick) { once.Do(cancel) }
	jobs := []Job{
		{Sys: sys, Trace: tr, Ctrl: newBaseline(t, sys), Opts: opts},
		{Sys: sys, Trace: tr, Ctrl: newBaseline(t, sys), Opts: opts},
	}
	if rs, err := (Batch{Workers: 1}).Run(ctx, jobs); !errors.Is(err, context.Canceled) || rs != nil {
		t.Fatalf("mid-run cancel: rs = %v, err = %v, want nil and wrapped context.Canceled", rs, err)
	}
	jobs[0].Ctrl, jobs[1].Ctrl = newBaseline(t, sys), newBaseline(t, sys)
	if rs, err := (Batch{Workers: 1}).Run(ctx, jobs); !errors.Is(err, context.Canceled) || rs != nil {
		t.Fatalf("pre-canceled: rs = %v, err = %v, want nil and wrapped context.Canceled", rs, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBatchRunContextCompletesUncanceled(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	jobs := []Job{
		{Sys: sys, Trace: tr, Ctrl: newBaseline(t, sys), Opts: DefaultOptions()},
		{Sys: sys, Trace: tr, Ctrl: newINOR(t, sys), Opts: DefaultOptions()},
	}
	rs, err := Batch{Workers: 2}.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0] == nil || rs[1] == nil {
		t.Fatalf("results incomplete: %+v", rs)
	}
}
