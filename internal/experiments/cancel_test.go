package experiments

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
)

// TestMatrixSweepCancelAbortsWithinOnePeriod cancels a parallel cycle
// × scheme sweep mid-flight from its OnTick feed and checks both halves
// of the contract: the sweep surfaces a wrapped context.Canceled, and
// every in-flight run stops within one control period — at most one
// extra tick per worker (a Step already past its per-tick context check
// when the cancel lands) is simulated after the trigger.
func TestMatrixSweepCancelAbortsWithinOnePeriod(t *testing.T) {
	const workers = 2
	const cancelAt = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ticks atomic.Int64
	m := scenario.CycleSweep(nil, nil, 120)
	_, err := MatrixSweep(ctx, &m, MatrixOptions{
		Workers: workers,
		OnTick: func(sim.Tick) {
			if ticks.Add(1) == cancelAt {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	total := ticks.Load()
	if total < cancelAt {
		t.Fatalf("sweep finished only %d ticks before the cancel trigger at %d", total, cancelAt)
	}
	if total > cancelAt+workers {
		t.Errorf("simulated %d ticks after cancellation at %d — more than one control period per worker leaked", total-cancelAt, cancelAt)
	}
}

// TestTableICancelPropagates covers Workers: 1, where the batch runs
// its jobs one at a time on a single pool goroutine: the cancel must
// surface there too.
func TestTableICancelPropagates(t *testing.T) {
	s := shortSetup(t, 60)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ticks atomic.Int64
	s.Opts.OnTick = func(sim.Tick) {
		if ticks.Add(1) == 20 {
			cancel()
		}
	}
	if _, err := TableI(ctx, s); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if got := ticks.Load(); got != 20 {
		t.Errorf("serial run simulated %d ticks after cancellation at 20", got-20)
	}
}
