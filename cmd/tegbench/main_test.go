package main

import (
	"strings"
	"testing"
)

func i64(v int64) *int64 { return &v }

// passingResults satisfies every bound of passingBudget.
func passingResults() []Result {
	return []Result{
		{Name: "session_step", NsPerOp: 1000, AllocsPerOp: i64(0), BytesPerOp: i64(0)},
		{Name: "session_step_instrumented", NsPerOp: 1050},
		{Name: "sweep_throughput", TicksPerSec: 2000},
		{Name: "twin_sessions_concurrent", TicksPerSec: 900},
		{Name: "sweep_sharded_throughput", TicksPerSec: 900},
		{Name: "matrix_expand", CellsPerSec: 9000},
		{Name: "decide_live_inor_n500", NsPerOp: 400_000},
	}
}

func passingBudget() map[string]float64 {
	return map[string]float64{
		"session_step_max_allocs_per_op":              0,
		"session_step_max_bytes_per_op":               64,
		"session_step_max_ns_per_op":                  2000,
		"session_step_instrumented_max_overhead_frac": 0.15,
		"sweep_throughput_min_ticks_per_sec":          1100,
		"twin_sessions_min_ticks_per_sec":             500,
		"sweep_sharded_throughput_min_ticks_per_sec":  500,
		"matrix_expand_min_cells_per_sec":             7000,
		"decide_live_inor_n500_max_ns_per_op":         1_000_000,
	}
}

// TestCheckBudgetViolatesEachKeyOnce breaks one budget key at a time
// and expects exactly that key to be reported.
func TestCheckBudgetViolatesEachKeyOnce(t *testing.T) {
	if err := checkBudget(passingBudget(), passingResults()); err != nil {
		t.Fatalf("passing document rejected: %v", err)
	}
	violate := map[string]func(r *Result){
		"session_step_max_allocs_per_op":              func(r *Result) { r.AllocsPerOp = i64(1) },
		"session_step_max_bytes_per_op":               func(r *Result) { r.BytesPerOp = i64(65) },
		"session_step_max_ns_per_op":                  func(r *Result) { r.NsPerOp = 2001 },
		"session_step_instrumented_max_overhead_frac": func(r *Result) { r.NsPerOp = 1200 },
		"sweep_throughput_min_ticks_per_sec":          func(r *Result) { r.TicksPerSec = 1099 },
		"twin_sessions_min_ticks_per_sec":             func(r *Result) { r.TicksPerSec = 499 },
		"sweep_sharded_throughput_min_ticks_per_sec":  func(r *Result) { r.TicksPerSec = 499 },
		"matrix_expand_min_cells_per_sec":             func(r *Result) { r.CellsPerSec = 6999 },
		"decide_live_inor_n500_max_ns_per_op":         func(r *Result) { r.NsPerOp = 1_000_001 },
	}
	if len(violate) != len(budgetRules) {
		t.Fatalf("%d violations for %d rules", len(violate), len(budgetRules))
	}
	for _, rule := range budgetRules {
		t.Run(rule.key, func(t *testing.T) {
			breakIt, ok := violate[rule.key]
			if !ok {
				t.Fatalf("no violation written for %s", rule.key)
			}
			results := passingResults()
			for i := range results {
				if results[i].Name == rule.suite {
					breakIt(&results[i])
				}
			}
			err := checkBudget(passingBudget(), results)
			if err == nil {
				t.Fatal("violation not reported")
			}
			if got := strings.Count(err.Error(), "\n") + 1; got != 1 || !strings.HasPrefix(err.Error(), rule.key+":") {
				t.Fatalf("want exactly one %s violation, got %d: %v", rule.key, got, err)
			}
		})
	}
}

// TestCheckBudgetZeroAndMissing pins the key semantics kept from the
// struct-based budget: 0 disables every bound except the allocation
// ceilings, an enforced key needs its suite, and an unknown key is an
// error rather than a silently ignored typo.
func TestCheckBudgetZeroAndMissing(t *testing.T) {
	results := passingResults()
	results[0].NsPerOp = 1e12
	if err := checkBudget(map[string]float64{"session_step_max_ns_per_op": 0}, results); err != nil {
		t.Errorf("0 ns/op ceiling enforced: %v", err)
	}
	results[0].AllocsPerOp = i64(1)
	if err := checkBudget(map[string]float64{"session_step_max_allocs_per_op": 0}, results); err == nil {
		t.Error("0 allocs/op ceiling not enforced")
	}
	if err := checkBudget(map[string]float64{"sweep_throughput_min_ticks_per_sec": 1}, nil); err == nil {
		t.Error("missing suite accepted")
	}
	noAllocs := []Result{{Name: "session_step", NsPerOp: 1}}
	if err := checkBudget(map[string]float64{"session_step_max_bytes_per_op": 64}, noAllocs); err == nil {
		t.Error("untracked allocations accepted")
	}
	if err := checkBudget(map[string]float64{"session_step_max_alocs_per_op": 0}, passingResults()); err == nil {
		t.Error("unknown key accepted")
	}
}

// TestRecordLiveTemps records a short live sequence: one private copy
// of the sensed distribution per tick.
func TestRecordLiveTemps(t *testing.T) {
	if testing.Short() {
		t.Skip("records a live session")
	}
	rec, err := recordLiveTemps(20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.temps) != 10 || len(rec.ambientC) != 10 || len(rec.temps[0]) != 20 {
		t.Fatalf("recorded %d distributions of %d modules, want 10 of 20", len(rec.temps), len(rec.temps[0]))
	}
	if &rec.temps[0][0] == &rec.temps[1][0] {
		t.Fatal("recorded distributions share storage")
	}
}
