package sim

import (
	"context"
	"fmt"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/drive"
	"tegrecon/internal/faults"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// stepAllocBudget is the committed allocation floor of a steady-state
// Session.Step: zero. cmd/tegbench enforces the same number (via
// bench_budget.json at the repo root) on every CI run's benchmark
// output; this gate catches a regression already at `go test`.
const stepAllocBudget = 0

// benchConds pre-interpolates a trace's per-tick radiator conditions so
// the loops below measure only the engine.
func benchConds(t *testing.T, tr *trace.Trace, tick float64) []thermal.Conditions {
	t.Helper()
	ticks := int(tr.Duration()/tick) + 1
	conds := make([]thermal.Conditions, ticks)
	for k := range conds {
		cond, err := drive.ConditionsAt(tr, tr.Times[0]+float64(k)*tick)
		if err != nil {
			t.Fatal(err)
		}
		conds[k] = cond
	}
	return conds
}

// TestSessionStepAllocationFree is the allocation-regression gate of
// the zero-allocation tick engine: after warmup (scratch buffers grown
// to their steady-state sizes), Step must allocate nothing. INOR and
// EHTR are the controllers under test because they exercise the full
// decision path — candidate search, equivalent pricing, EHTR's DP
// table, MPPT restart — every period, with the pricing hint carried
// from one period to the next. INOR runs once more under a random
// fault plan, whose failures all land during warmup, so the plant's
// module table is built over failed-open and failed-short modules on
// every measured step, and once more with SelfCheck on, whose
// energy-conservation check reads the tick's module table and fills the
// session's module-current scratch. DNOR is left out until its predictor is
// allocation-free: MLR allocates on every Predict (ROADMAP, "DNOR, the
// paper's scheme, allocation-free"; CHANGES.md's FOUND line on
// session_step_instrumented_dnor_n500).
func TestSessionStepAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation adds allocations the production build does not pay")
	}
	sys := DefaultSystem()
	tr := shortTrace(t)
	conds := benchConds(t, tr, DefaultOptions().TickSeconds)
	plan, err := faults.RandomPlan(sys.Modules, 10, tr.Duration(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, scheme string
		plan         *faults.Plan
		selfCheck    bool
	}{
		{"INOR", "INOR", nil, false},
		{"EHTR", "EHTR", nil, false},
		{"INOR_faulted", "INOR", plan, false},
		{"INOR_selfcheck", "INOR", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.KeepTicks = false
			opts.FaultPlan = tc.plan
			opts.SelfCheck = tc.selfCheck
			sess, err := NewSession(sys, newScheme(t, tc.scheme, sys), opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warmup: one full pass over the trace grows every scratch
			// buffer to the largest size this drive demands.
			for _, cond := range conds {
				if _, err := sess.Step(cond); err != nil {
					t.Fatal(err)
				}
			}
			if failed := countFailed(sess.sc.health); tc.plan != nil && failed != tc.plan.Len() {
				t.Fatalf("%d modules failed after warmup, plan has %d failures", failed, tc.plan.Len())
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				if _, err := sess.Step(conds[i%len(conds)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg > stepAllocBudget {
				t.Fatalf("steady-state %s Session.Step allocates %.2f objects/op, budget %d", tc.name, avg, stepAllocBudget)
			}
		})
	}
}

// countFailed returns the number of modules of health that are not
// healthy.
func countFailed(health []array.ModuleHealth) int {
	n := 0
	for _, h := range health {
		if h != array.Healthy {
			n++
		}
	}
	return n
}

// TestKeepTicksFalseAllocatesNoTickSlice pins the Options memory
// contract: a summary-only run (KeepTicks=false) must never materialise
// a tick buffer — not an empty one, none at all — while OnTick still
// sees every record.
func TestKeepTicksFalseAllocatesNoTickSlice(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	opts.KeepTicks = false
	seen := 0
	opts.OnTick = func(Tick) { seen++ }
	res, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != nil {
		t.Fatalf("KeepTicks=false run materialised a tick slice (len %d, cap %d)", len(res.Ticks), cap(res.Ticks))
	}
	if seen == 0 {
		t.Fatal("OnTick observed no ticks")
	}
	if res.EnergyOutJ <= 0 {
		t.Fatal("no energy harvested")
	}
}

// TestBatchJobBitIdenticalToFreshRun proves a batch job computes the
// same physics as a standalone run: the same job run fresh and as the
// second job of a batch, at one worker and at two, produces
// tick-for-tick identical results.
func TestBatchJobBitIdenticalToFreshRun(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()

	fresh, err := Run(context.Background(), sys, tr, newINOR(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		// A different scheme first, so with one worker the INOR job runs
		// right after another run on the same pool goroutine.
		jobs := []Job{
			{Sys: sys, Trace: tr, Ctrl: newDNOR(t, sys), Opts: opts},
			{Sys: sys, Trace: tr, Ctrl: newINOR(t, sys), Opts: opts},
		}
		rs, err := Batch{Workers: workers}.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		assertTicksEqual(t, fmt.Sprintf("workers=%d batch job", workers), fresh, rs[1])
	}
}

// assertTicksEqual compares two results tick for tick, bit for bit.
func assertTicksEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.EnergyOutJ != got.EnergyOutJ || want.OverheadJ != got.OverheadJ ||
		want.SwitchEvents != got.SwitchEvents || want.SwitchToggles != got.SwitchToggles ||
		want.IdealEnergyJ != got.IdealEnergyJ || want.AvgTEGEff != got.AvgTEGEff {
		t.Fatalf("%s: summaries differ: %+v vs %+v", label, want, got)
	}
	if len(want.Ticks) != len(got.Ticks) {
		t.Fatalf("%s: %d vs %d ticks", label, len(want.Ticks), len(got.Ticks))
	}
	for i := range want.Ticks {
		if want.Ticks[i] != got.Ticks[i] {
			t.Fatalf("%s: tick %d differs: %+v vs %+v", label, i, want.Ticks[i], got.Ticks[i])
		}
	}
}
