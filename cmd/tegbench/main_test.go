package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tegrecon/internal/sim"
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
		{Name: "decide_live_ehtr_n500", NsPerOp: 1_000_000},
		{Name: "decide_live_inor_n100", NsPerOp: 150_000},
		{Name: "decide_live_ehtr_n100", NsPerOp: 200_000},
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
		"decide_live_ehtr_n500_max_ns_per_op":         2_000_000,
		"decide_live_inor_n100_max_ns_per_op":         400_000,
		"decide_live_ehtr_n100_max_ns_per_op":         500_000,
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
		"decide_live_ehtr_n500_max_ns_per_op":         func(r *Result) { r.NsPerOp = 2_000_001 },
		"decide_live_inor_n100_max_ns_per_op":         func(r *Result) { r.NsPerOp = 400_001 },
		"decide_live_ehtr_n100_max_ns_per_op":         func(r *Result) { r.NsPerOp = 500_001 },
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

// TestBudgetRulesNameSuites ties the budget rules to the suite table:
// every rule must bound a suite tegbench runs, quick or not, so
// deleting or renaming a gated suite fails here instead of in a bench
// run.
func TestBudgetRulesNameSuites(t *testing.T) {
	for _, quick := range []bool{false, true} {
		names := make(map[string]bool)
		for _, s := range suites(quick) {
			if names[s.name] {
				t.Errorf("quick=%v: suite %s listed twice", quick, s.name)
			}
			names[s.name] = true
		}
		for _, rule := range budgetRules {
			if !names[rule.suite] {
				t.Errorf("quick=%v: %s bounds %s, which is not in the suite table", quick, rule.key, rule.suite)
			}
		}
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

// TestPhaseFracs pins the phase split: only the timings sampled
// between the two snapshots count, the shares sum to one, and an
// interval with nothing sampled records no split.
func TestPhaseFracs(t *testing.T) {
	before := sim.PhaseTimings{Samples: 3, TempsNs: 100, SenseNs: 100, DecideNs: 100, ActNs: 100}
	after := sim.PhaseTimings{Samples: 7, TempsNs: 200, SenseNs: 150, DecideNs: 800, ActNs: 250}
	got := phaseFracs(before, after)
	want := PhaseFracs{Samples: 4, Temps: 0.1, Sense: 0.05, Decide: 0.7, Act: 0.15}
	if got == nil || got.Samples != want.Samples ||
		math.Abs(got.Temps-want.Temps) > 1e-12 || math.Abs(got.Sense-want.Sense) > 1e-12 ||
		math.Abs(got.Decide-want.Decide) > 1e-12 || math.Abs(got.Act-want.Act) > 1e-12 {
		t.Fatalf("phaseFracs = %+v, want %+v", got, want)
	}
	if got := phaseFracs(after, after); got != nil {
		t.Fatalf("empty interval gave %+v", got)
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

// TestBudgetViolationReachesStderr runs main's budget gate in a child
// process behind main's logging set-up: a violated budget must exit 1
// and name the violated key on stderr, which the Warn-level slog
// default must not swallow.
func TestBudgetViolationReachesStderr(t *testing.T) {
	if path := os.Getenv("TEGBENCH_BUDGET_CHILD"); path != "" {
		meetBudget(newLogger(os.Stderr), path, Document{Results: passingResults()})
		os.Exit(0)
	}
	const key = "decide_live_inor_n100_max_ns_per_op"
	path := filepath.Join(t.TempDir(), "budget.json")
	if err := os.WriteFile(path, []byte(`{"`+key+`": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBudgetViolationReachesStderr$")
	cmd.Env = append(os.Environ(), "TEGBENCH_BUDGET_CHILD="+path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child exited with %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "budget violation: "+key) {
		t.Fatalf("stderr does not name %s:\n%s", key, stderr.String())
	}
}
