package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/thermal"
)

// wltcConds interpolates the first `ticks` control periods of radiator
// boundary conditions from the WLTC cycle — the shared workload of the
// checkpoint goldens.
func wltcConds(t *testing.T, ticks int, tickS float64) []thermal.Conditions {
	t.Helper()
	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = float64(ticks) * tickS
	tr, err := cycle.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conds := make([]thermal.Conditions, ticks)
	for k := range conds {
		conds[k], err = drive.ConditionsAt(tr, tr.Times[0]+float64(k)*tickS)
		if err != nil {
			t.Fatal(err)
		}
	}
	return conds
}

func checkpointTestOptions(battery bool) Options {
	opts := DefaultOptions()
	opts.KeepTicks = true
	opts.Battery = battery
	return opts
}

func newCheckpointTestSession(t *testing.T, scheme string, opts Options) *Session {
	t.Helper()
	sys := DefaultSystem()
	sys.Modules = 40
	sch, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sch.New(sys, SchemeConfig{TickSeconds: opts.TickSeconds})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(sys, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestCheckpointRestoreBitIdentical is the golden property of the
// checkpoint subsystem: a session snapshotted mid-WLTC and restored
// into a fresh Session (fresh controller, fresh RNG, fresh tracker)
// replays the remaining ticks bit-for-bit identical to the
// uninterrupted run — for all four schemes, including DNOR's
// incumbent/predictor state and the battery integrators.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const ticks = 160
	opts := checkpointTestOptions(true)
	conds := wltcConds(t, ticks, opts.TickSeconds)
	for _, scheme := range SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := newCheckpointTestSession(t, scheme, opts)
			for _, c := range conds {
				if _, err := ref.Step(c); err != nil {
					t.Fatal(err)
				}
			}

			// Checkpointed run: step to an uneven split point (off
			// DNOR's decision cadence on purpose), snapshot, restore,
			// finish.
			const cut = 67
			orig := newCheckpointTestSession(t, scheme, opts)
			for _, c := range conds[:cut] {
				if _, err := orig.Step(c); err != nil {
					t.Fatal(err)
				}
			}
			st, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sys := DefaultSystem()
			sys.Modules = 40
			restored, err := RestoreSession(context.Background(), sys, st)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restored.Steps(), cut; got != want {
				t.Fatalf("restored.Steps() = %d, want %d", got, want)
			}
			if got, want := restored.Now(), orig.Now(); got != want {
				t.Fatalf("restored.Now() = %v, want %v", got, want)
			}
			for k, c := range conds[cut:] {
				rt, err := restored.Step(c)
				if err != nil {
					t.Fatalf("restored step %d: %v", cut+k, err)
				}
				want := ref.Result().Ticks[cut+k]
				if rt != want {
					t.Fatalf("%s tick %d diverged after restore:\nrestored: %+v\nreference: %+v", scheme, cut+k, rt, want)
				}
			}
			refRes, gotRes := ref.Result(), restored.Result()
			if !reflect.DeepEqual(refRes, gotRes) {
				t.Fatalf("%s final results differ:\nrestored: %+v\nreference: %+v", scheme, gotRes, refRes)
			}
			// The original keeps stepping after the snapshot — a
			// snapshot is a copy, not a terminator — and stays
			// bit-identical too.
			for k, c := range conds[cut:] {
				ot, err := orig.Step(c)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.Result().Ticks[cut+k]; ot != want {
					t.Fatalf("%s original tick %d diverged after snapshot: %+v != %+v", scheme, cut+k, ot, want)
				}
			}
		})
	}
}

// TestRestoreSessionMidCycleStartTime pins the session-clock contract
// for checkpoints taken on a nonzero-origin clock (a session created
// from a trace segment): the restored clock resumes at
// StartTime + steps·tick, and the fault/decision cadence that rides on
// it stays aligned.
func TestRestoreSessionMidCycleStartTime(t *testing.T) {
	opts := checkpointTestOptions(false)
	opts.StartTime = 300.25 // mid-cycle origin, off any tick boundary
	conds := wltcConds(t, 40, opts.TickSeconds)
	sess := newCheckpointTestSession(t, "INOR", opts)
	for _, c := range conds[:25] {
		if _, err := sess.Step(c); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sys := DefaultSystem()
	sys.Modules = 40
	restored, err := RestoreSession(context.Background(), sys, st)
	if err != nil {
		t.Fatal(err)
	}
	want := 300.25 + 25*opts.TickSeconds
	if got := restored.Now(); got != want {
		t.Fatalf("restored.Now() = %v, want %v", got, want)
	}
	tick, err := restored.Step(conds[25])
	if err != nil {
		t.Fatal(err)
	}
	if tick.Time != want {
		t.Fatalf("restored tick stamped %v, want %v", tick.Time, want)
	}
}

// TestRestoreSessionRejects pins the defensive half of the restore
// path: mismatched plant size, missing accumulators, negative progress
// and invalid options (through the same Options.Validate as a fresh
// session) are all rejected.
func TestRestoreSessionRejects(t *testing.T) {
	opts := checkpointTestOptions(false)
	conds := wltcConds(t, 10, opts.TickSeconds)
	sess := newCheckpointTestSession(t, "INOR", opts)
	for _, c := range conds {
		if _, err := sess.Step(c); err != nil {
			t.Fatal(err)
		}
	}
	snap := func() *SessionState {
		st, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sys := DefaultSystem()
	sys.Modules = 40

	if _, err := RestoreSession(context.Background(), sys, nil); err == nil {
		t.Error("nil state accepted")
	}
	st := snap()
	st.Modules = 41
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("module-count mismatch accepted")
	}
	st = snap()
	st.Result = nil
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("missing result accumulator accepted")
	}
	st = snap()
	st.RNGDraws = -1
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("negative RNG position accepted")
	}
	// The session draws exactly Modules values per step, so any claimed
	// position beyond Steps×Modules is forged — and, unchecked, a forged
	// position is an unbounded CPU burn in the restore's replay loop.
	st = snap()
	st.RNGDraws = int64(st.Steps)*int64(st.Modules) + 1
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("RNG position beyond steps×modules accepted")
	}
	// One draw short is forged too: restoring it would silently replay
	// onto another noise stream.
	st = snap()
	st.RNGDraws--
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("RNG position below steps×modules accepted")
	}
	st = snap()
	st.Steps = math.MaxInt // implausible progress: steps×modules overflows
	st.RNGDraws = math.MaxInt64
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("overflowing steps×modules accepted")
	}
	st = snap()
	st.Scheme = "NoSuchScheme"
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("unknown scheme accepted")
	}
	st = snap()
	st.HorizonTicks = MaxHorizonTicks + 1
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("horizon beyond MaxHorizonTicks accepted")
	}
	st = snap()
	st.Options.TickSeconds = -1
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("invalid restored options accepted (Validate not applied)")
	}
	st = snap()
	st.Options.Battery = true // options say battery, checkpoint has no battery state
	if _, err := RestoreSession(context.Background(), sys, st); err == nil {
		t.Error("battery-enabled options without battery state accepted")
	}
}

// TestRestoreSessionContextCanceled pins the restore's abort path: the
// RNG fast-forward — the one restore cost that scales with the
// checkpoint's claimed progress — honors context cancellation instead
// of replaying to completion.
func TestRestoreSessionContextCanceled(t *testing.T) {
	opts := checkpointTestOptions(false)
	conds := wltcConds(t, 5, opts.TickSeconds)
	sess := newCheckpointTestSession(t, "Baseline", opts)
	for _, c := range conds {
		if _, err := sess.Step(c); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sys := DefaultSystem()
	sys.Modules = 40
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RestoreSession(ctx, sys, st); !errors.Is(err, context.Canceled) {
		t.Fatalf("restore under a canceled context returned %v, want context.Canceled", err)
	}
	if restored, err := RestoreSession(context.Background(), sys, st); err != nil || restored == nil {
		t.Fatalf("restore under a live context failed: %v", err)
	}
}
