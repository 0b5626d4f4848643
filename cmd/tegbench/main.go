// Command tegbench is the repository's reproducible performance
// harness: it runs a fixed benchmark suite over the simulation engine
// and emits one machine-readable JSON document, so every PR's perf is
// recorded next to the code (BENCH_<pr>.json at the repo root) and CI
// can fail a change that regresses the committed allocation budget.
//
// Usage:
//
//	tegbench [-quick] [-pr 6] [-out BENCH_6.json] [-budget bench_budget.json] [-require-clean]
//
// -quick shrinks drive durations and iteration counts for CI; -out
// writes the JSON to a file instead of stdout; -budget reads a budget
// file (see below) and exits non-zero when the measured numbers exceed
// it; -require-clean refuses to measure a dirty working tree at all, so
// a committed BENCH file can never carry "git_dirty": true by accident.
//
// The fixed suite:
//
//	session_step        one steady-state Session.Step (INOR, 100 modules):
//	                    the zero-allocation gate of the tick engine
//	session_step_instrumented
//	                    session_step with 1-in-16 phase-timing sampling
//	                    (the serve layer's default rate) — the
//	                    observability tax, capped by the budget file
//	                    relative to the plain suite; also records the
//	                    sampled per-phase shares of the measured steps
//	                    (phases)
//	session_step_instrumented_<scheme>_n500
//	                    the same for inor, dnor and ehtr at N = 500 (the
//	                    twins_n500 array size): where those schemes'
//	                    tick time goes, decide against temps, sense and
//	                    act
//	table1_<scheme>     one full run per Table I scheme over the synthetic
//	                    drive (dnor, inor, ehtr, baseline)
//	decide_live_<scheme>_n<N>
//	                    one Decide of inor, dnor and ehtr at N = 100, 200,
//	                    400, 500 and 800, on the sensed temperatures
//	                    recorded from a WLTC session at that size and
//	                    replayed in order (ticks_per_sec counts
//	                    decisions): the paper's O(N) INOR and DNOR
//	                    against EHTR's shared-table DP, O(N·(N+nmax)), at
//	                    the runs_n100 and session_step size, the
//	                    twins_n500 size and up to the largest wall-clock
//	                    point (tegfig -fig scaling prices Ext-A from
//	                    counted work instead)
//	sweep_throughput    the full cycle × scheme sweep (scenario.CycleSweep
//	                    run as matrix cells) on the batch engine, all
//	                    cores (aggregate ticks/sec)
//	twin_sessions_concurrent
//	                    eight /v1/sessions digital twins stepped in
//	                    parallel over HTTP, 50-tick batches through the
//	                    delivery cycle (aggregate ticks/sec): the
//	                    long-lived-session serving cost
//	matrix_expand       compiling a 256-cell scenario matrix (cycles ×
//	                    schemes × ambients × flows × faults × sizes)
//	                    into its deterministic job list — trace
//	                    materialization, coordinate hashing and seed
//	                    derivation, no simulation (cells_per_sec)
//	matrix_sweep_throughput
//	                    the same matrix run end to end on the batch
//	                    engine, all cores (aggregate ticks/sec): the
//	                    scenario-matrix serving cost
//	sweep_sharded_throughput
//	                    a cycle sweep whose matrix cells a coordinator
//	                    shards across two in-process worker servers
//	                    over the /v1/shards protocol and merges
//	                    bit-exactly
//	                    (aggregate worker ticks/sec over coordinator
//	                    wall clock): the distributed tier's overhead
//
// JSON schema (schema_version 1):
//
//	{
//	  "schema_version": 1,            // this document's format version
//	  "pr":             5,            // -pr value; which PR measured this
//	  "git_sha":        "<hex|unknown>",
//	  "git_dirty":      true,         // uncommitted changes at measure time
//	  "go_version":     "go1.24.x",
//	  "goos":           "linux",
//	  "goarch":         "amd64",
//	  "num_cpu":        2,            // runtime.NumCPU
//	  "gomaxprocs":     2,            // runtime.GOMAXPROCS(0)
//	  "cpu_model":      "<model name from /proc/cpuinfo|unknown>",
//	  "quick":          false,        // -quick was set
//	  "timestamp":      "RFC 3339 UTC",
//	  "results": [
//	    {
//	      "name":          "session_step",
//	      "iterations":    12345,     // measured iterations
//	      "ns_per_op":     287000,    // wall time per operation
//	      "bytes_per_op":  0,         // heap bytes per operation (alloc-tracked suites)
//	      "allocs_per_op": 0,         // heap allocations per operation
//	      "ticks_per_sec": 3484,      // simulated control periods per second,
//	                                  // when the suite simulates ticks
//	      "module_ticks_per_sec": 348400, // ticks_per_sec × modules per tick,
//	                                  // comparable across array sizes
//	                                  // (omitted by suites mixing sizes)
//	      "phases": {                 // phase-sampled suites only
//	        "samples": 1024,          // fully timed control periods
//	        "temps_frac": 0.05, "sense_frac": 0.01,
//	        "decide_frac": 0.80, "act_frac": 0.14
//	      }
//	    }, ...
//	  ]
//	}
//
// Budget file schema (-budget): a JSON object whose present fields are
// enforced against the measured results (the budgetRules table; an
// unknown key is an error, so a typo cannot switch a bound off):
//
//	{
//	  "session_step_max_allocs_per_op":    0,
//	  "session_step_max_bytes_per_op":     64,
//	  "session_step_max_ns_per_op":        0,    // 0 = not enforced
//	  "sweep_throughput_min_ticks_per_sec": 1100, // 0 = not enforced
//	  "twin_sessions_min_ticks_per_sec":    500,  // 0 = not enforced
//	  "sweep_sharded_throughput_min_ticks_per_sec": 500, // 0 = not enforced
//	  "matrix_expand_min_cells_per_sec":    500,  // 0 = not enforced
//	  "session_step_instrumented_max_overhead_frac": 0.15, // vs session_step; 0 = not enforced
//	  "decide_live_inor_n500_max_ns_per_op": 1e6, // 0 = not enforced
//	  "decide_live_ehtr_n500_max_ns_per_op": 2e6, // 0 = not enforced
//	  "decide_live_inor_n100_max_ns_per_op": 4e5, // 0 = not enforced
//	  "decide_live_ehtr_n100_max_ns_per_op": 5e5  // 0 = not enforced
//	}
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/obs"
	"tegrecon/internal/scenario"
	"tegrecon/internal/serve"
	"tegrecon/internal/sim"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// Result is one suite entry of the emitted document. The allocation
// fields are present only for the alloc-tracked suites (session_step*,
// decide_live_*, matrix_expand); wall-clock suites omit them rather than
// claim a zero they did not measure.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	TicksPerSec float64 `json:"ticks_per_sec,omitempty"`
	// ModuleTicksPerSec is TicksPerSec × the array size, the unit that
	// compares suites running different module counts.
	ModuleTicksPerSec float64 `json:"module_ticks_per_sec,omitempty"`
	CellsPerSec       float64 `json:"cells_per_sec,omitempty"`
	// Phases is the sampled per-phase split of tick time, recorded by
	// the phase-sampled session suite.
	Phases *PhaseFracs `json:"phases,omitempty"`
}

// PhaseFracs is each tick phase's share of the sampled tick time
// (sim.Result.Phases) over a suite's measured steps.
type PhaseFracs struct {
	Samples int64   `json:"samples"`
	Temps   float64 `json:"temps_frac"`
	Sense   float64 `json:"sense_frac"`
	Decide  float64 `json:"decide_frac"`
	Act     float64 `json:"act_frac"`
}

// phaseFracs splits the timings sampled between two snapshots of one
// session's phase accumulator; nil when nothing was sampled.
func phaseFracs(before, after sim.PhaseTimings) *PhaseFracs {
	d := sim.PhaseTimings{
		Samples:  after.Samples - before.Samples,
		TempsNs:  after.TempsNs - before.TempsNs,
		SenseNs:  after.SenseNs - before.SenseNs,
		DecideNs: after.DecideNs - before.DecideNs,
		ActNs:    after.ActNs - before.ActNs,
	}
	total := float64(d.TotalNs())
	if d.Samples <= 0 || total <= 0 {
		return nil
	}
	return &PhaseFracs{
		Samples: d.Samples,
		Temps:   float64(d.TempsNs) / total,
		Sense:   float64(d.SenseNs) / total,
		Decide:  float64(d.DecideNs) / total,
		Act:     float64(d.ActNs) / total,
	}
}

// withModules fills ModuleTicksPerSec for a suite whose every tick
// steps an array of n modules.
func (r Result) withModules(n int) Result {
	r.ModuleTicksPerSec = r.TicksPerSec * float64(n)
	return r
}

// Document is the whole emitted report.
type Document struct {
	SchemaVersion int      `json:"schema_version"`
	PR            int      `json:"pr"`
	GitSHA        string   `json:"git_sha"`
	GitDirty      bool     `json:"git_dirty"`
	GoVersion     string   `json:"go_version"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	NumCPU        int      `json:"num_cpu"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	CPUModel      string   `json:"cpu_model"`
	Quick         bool     `json:"quick"`
	Timestamp     string   `json:"timestamp"`
	Results       []Result `json:"results"`
}

// newLogger quiets library logging and returns the logger for
// tegbench's own progress lines and fatal errors. Library code logs
// through slog, and a bench run wants that quiet unless something is
// actually wrong. slog.SetDefault also reroutes the log package's
// default logger into that Warn-level handler at Info level, which
// would drop every progress line and every fatal reason, so tegbench
// writes through a logger of its own instead.
func newLogger(w io.Writer) *log.Logger {
	slog.SetDefault(obs.MustLogger(w, slog.LevelWarn, "text"))
	return log.New(w, "tegbench: ", 0)
}

// meetBudget enforces the budget file at path against doc, exiting 1
// with the violations on the logger when a bound is missed.
func meetBudget(logger *log.Logger, path string, doc Document) {
	if err := enforceBudget(path, doc); err != nil {
		logger.Fatalf("budget violation: %v", err)
	}
	logger.Printf("budget %s satisfied", path)
}

func main() {
	logger := newLogger(os.Stderr)
	var (
		quick        = flag.Bool("quick", false, "shrink durations and iteration counts (CI mode)")
		out          = flag.String("out", "", "write the JSON document to this file instead of stdout")
		pr           = flag.Int("pr", 0, "PR number stamped into the document")
		budgetPath   = flag.String("budget", "", "budget JSON enforced against the results; non-zero exit on violation")
		requireClean = flag.Bool("require-clean", false, "refuse to run when the working tree has uncommitted changes")
	)
	flag.Parse()

	doc := Document{
		SchemaVersion: 1,
		PR:            *pr,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		Quick:         *quick,
		Timestamp:     time.Now().UTC().Format(time.RFC3339),
	}
	doc.GitSHA, doc.GitDirty = gitState()
	if *requireClean && doc.GitDirty {
		logger.Fatalf("working tree has uncommitted changes (commit or stash before measuring; see `git status`)")
	}

	for _, s := range suites(*quick) {
		logger.Printf("running %s ...", s.name)
		r, err := s.run()
		if err != nil {
			logger.Fatalf("%s: %v", s.name, err)
		}
		r.Name = s.name
		doc.Results = append(doc.Results, r)
	}

	payload, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	payload = append(payload, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, payload, 0o644); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("wrote %s", *out)
	} else {
		os.Stdout.Write(payload)
	}

	if *budgetPath != "" {
		meetBudget(logger, *budgetPath, doc)
	}
}

// suite is one named entry of the fixed suite.
type suite struct {
	name string
	run  func() (Result, error)
}

// suites returns the fixed suite in run order; quick shrinks drive
// durations and iteration counts. Nothing runs until a suite's run is
// called.
func suites(quick bool) []suite {
	runDur, sweepCap, liveDur := 120.0, 120.0, 600.0
	if quick {
		runDur, sweepCap, liveDur = 60.0, 45.0, 200.0
	}
	s := []suite{
		{"session_step", func() (Result, error) { return benchSessionStep("INOR", 100, runDur, 0) }},
		{"session_step_instrumented", func() (Result, error) { return benchSessionStep("INOR", 100, runDur, 16) }},
		{"session_step_instrumented_inor_n500", func() (Result, error) { return benchSessionStep("INOR", 500, runDur, 16) }},
		{"session_step_instrumented_dnor_n500", func() (Result, error) { return benchSessionStep("DNOR", 500, runDur, 16) }},
		{"session_step_instrumented_ehtr_n500", func() (Result, error) { return benchSessionStep("EHTR", 500, runDur, 16) }},
		{"table1_dnor", func() (Result, error) { return benchTableScheme("DNOR", runDur) }},
		{"table1_inor", func() (Result, error) { return benchTableScheme("INOR", runDur) }},
		{"table1_ehtr", func() (Result, error) { return benchTableScheme("EHTR", runDur) }},
		{"table1_baseline", func() (Result, error) { return benchTableScheme("Baseline", runDur) }},
	}
	// The decide_live_<scheme>_n<N> grid: every scheme at every size,
	// over one recording per size made when its first suite runs.
	for _, n := range []int{100, 200, 400, 500, 800} {
		live := sync.OnceValues(func() (*liveTemps, error) { return recordLiveTemps(n, liveDur) })
		for _, scheme := range []string{"INOR", "DNOR", "EHTR"} {
			s = append(s, suite{
				fmt.Sprintf("decide_live_%s_n%d", strings.ToLower(scheme), n),
				func() (Result, error) { return benchDecideLive(scheme, n, live) },
			})
		}
	}
	return append(s,
		suite{"sweep_throughput", func() (Result, error) { return benchSweep(sweepCap) }},
		suite{"twin_sessions_concurrent", func() (Result, error) { return benchTwinSessions(quick) }},
		suite{"matrix_expand", benchMatrixExpand},
		suite{"matrix_sweep_throughput", func() (Result, error) { return benchMatrixSweep(quick) }},
		suite{"sweep_sharded_throughput", func() (Result, error) { return benchSweepSharded(quick) }},
	)
}

// gitState reports the checked-out commit and whether the tree carries
// uncommitted changes; "unknown" when git is unavailable. Untracked
// files are not "dirty": they cannot alter the measured build, and
// counting them is how BENCH_5.json came to record a dirty tree for a
// clean build (the not-yet-added BENCH file itself tripped the flag).
func gitState() (sha string, dirty bool) {
	rev, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(rev)), err == nil && len(bytes.TrimSpace(status)) > 0
}

// cpuModel reads the first "model name" line of /proc/cpuinfo;
// "unknown" where there is none (non-Linux hosts, some ARM kernels).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// budgetRule is one bench_budget.json key: a ceiling or floor on one
// metric of one suite.
type budgetRule struct {
	key   string // bench_budget.json field
	suite string // result the bound applies to
	unit  string // metric name for messages
	max   bool   // ceiling when true, floor otherwise
	// zeroBinds marks keys whose 0 is a real bound (the allocation
	// ceilings); for every other key 0 means "not enforced".
	zeroBinds bool
	metric    func(r Result, results map[string]Result) (float64, error)
}

var budgetRules = []budgetRule{
	{"session_step_max_allocs_per_op", "session_step", "allocs/op", true, true, allocsPerOp},
	{"session_step_max_bytes_per_op", "session_step", "B/op", true, true, bytesPerOp},
	{"session_step_max_ns_per_op", "session_step", "ns/op", true, false, nsPerOpOf},
	{"session_step_instrumented_max_overhead_frac", "session_step_instrumented", "overhead vs session_step", true, false, overheadVs("session_step")},
	{"sweep_throughput_min_ticks_per_sec", "sweep_throughput", "ticks/sec", false, false, ticksPerSec},
	{"twin_sessions_min_ticks_per_sec", "twin_sessions_concurrent", "ticks/sec", false, false, ticksPerSec},
	{"sweep_sharded_throughput_min_ticks_per_sec", "sweep_sharded_throughput", "ticks/sec", false, false, ticksPerSec},
	{"matrix_expand_min_cells_per_sec", "matrix_expand", "cells/sec", false, false, cellsPerSec},
	{"decide_live_inor_n500_max_ns_per_op", "decide_live_inor_n500", "ns/op", true, false, nsPerOpOf},
	{"decide_live_ehtr_n500_max_ns_per_op", "decide_live_ehtr_n500", "ns/op", true, false, nsPerOpOf},
	{"decide_live_inor_n100_max_ns_per_op", "decide_live_inor_n100", "ns/op", true, false, nsPerOpOf},
	{"decide_live_ehtr_n100_max_ns_per_op", "decide_live_ehtr_n100", "ns/op", true, false, nsPerOpOf},
}

func allocsPerOp(r Result, _ map[string]Result) (float64, error) {
	if r.AllocsPerOp == nil {
		return 0, fmt.Errorf("%s did not track allocations", r.Name)
	}
	return float64(*r.AllocsPerOp), nil
}

func bytesPerOp(r Result, _ map[string]Result) (float64, error) {
	if r.BytesPerOp == nil {
		return 0, fmt.Errorf("%s did not track allocations", r.Name)
	}
	return float64(*r.BytesPerOp), nil
}

func nsPerOpOf(r Result, _ map[string]Result) (float64, error)   { return r.NsPerOp, nil }
func ticksPerSec(r Result, _ map[string]Result) (float64, error) { return r.TicksPerSec, nil }
func cellsPerSec(r Result, _ map[string]Result) (float64, error) { return r.CellsPerSec, nil }

// overheadVs is the fraction by which a suite's ns/op exceeds the base
// suite's — the instrumented-overhead cap stays relative to
// session_step, so it holds on any machine.
func overheadVs(base string) func(Result, map[string]Result) (float64, error) {
	return func(r Result, results map[string]Result) (float64, error) {
		b, ok := results[base]
		if !ok {
			return 0, fmt.Errorf("no %s result to anchor the overhead cap", base)
		}
		if b.NsPerOp <= 0 {
			return 0, fmt.Errorf("%s ns/op %.0f cannot anchor the overhead cap", base, b.NsPerOp)
		}
		return r.NsPerOp/b.NsPerOp - 1, nil
	}
}

// enforceBudget checks the results against the budget file at path.
func enforceBudget(path string, doc Document) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return checkBudget(budget, doc.Results)
}

// checkBudget applies every budgetRules entry present in budget to the
// results and reports all violations.
func checkBudget(budget map[string]float64, results []Result) error {
	byName := make(map[string]Result, len(results))
	for _, r := range results {
		byName[r.Name] = r
	}
	known := make(map[string]bool, len(budgetRules))
	var errs []error
	for _, rule := range budgetRules {
		known[rule.key] = true
		bound, ok := budget[rule.key]
		if !ok || (bound == 0 && !rule.zeroBinds) {
			continue
		}
		r, ok := byName[rule.suite]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no %s result to enforce against", rule.key, rule.suite))
			continue
		}
		v, err := rule.metric(r, byName)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", rule.key, err))
			continue
		}
		switch {
		case rule.max && v > bound:
			errs = append(errs, fmt.Errorf("%s: %s %s %.4g exceeds ceiling %.4g", rule.key, rule.suite, rule.unit, v, bound))
		case !rule.max && v < bound:
			errs = append(errs, fmt.Errorf("%s: %s %s %.4g below floor %.4g", rule.key, rule.suite, rule.unit, v, bound))
		}
	}
	var unknown []string
	for key := range budget {
		if !known[key] {
			unknown = append(unknown, key)
		}
	}
	sort.Strings(unknown)
	for _, key := range unknown {
		errs = append(errs, fmt.Errorf("unknown budget key %q", key))
	}
	return errors.Join(errs...)
}

// benchTrace synthesizes the paper's drive cut to seconds.
func benchTrace(seconds float64) (*trace.Trace, error) {
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = seconds
	return drive.Synthesize(cfg)
}

// newScheme builds a fresh controller for the named scheme on sys: every
// tegbench controller, DNOR at its default 4-tick horizon and the
// paper's control period.
func newScheme(name string, sys *sim.System) (core.Controller, error) {
	sch, err := sim.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	return sch.New(sys, sim.SchemeConfig{})
}

// preparedConds interpolates every control period's radiator boundary
// conditions up front so the step benchmark measures only the engine.
func preparedConds(tr *trace.Trace, tickSeconds float64) ([]thermal.Conditions, error) {
	ticks := int(tr.Duration()/tickSeconds) + 1
	conds := make([]thermal.Conditions, ticks)
	for k := range conds {
		cond, err := drive.ConditionsAt(tr, tr.Times[0]+float64(k)*tickSeconds)
		if err != nil {
			return nil, err
		}
		conds[k] = cond
	}
	return conds, nil
}

// benchSessionStep measures one steady-state control period of the
// incremental engine for the named scheme at the given array size, with
// phase-timing sampling at the given interval (0 = off). session_step
// runs INOR at 100 modules unsampled: the zero-allocation acceptance
// gate. The session_step_instrumented suites sample at the serve
// layer's default rate: at INOR N = 100 so the budget file can cap the
// observability overhead against the plain suite, and at N = 500 for
// each scheme's phase split.
func benchSessionStep(scheme string, modules int, seconds float64, sampleEvery int) (Result, error) {
	tr, err := benchTrace(seconds)
	if err != nil {
		return Result{}, err
	}
	sys, opts := sim.DefaultSystem(), sim.DefaultOptions()
	sys.Modules = modules
	conds, err := preparedConds(tr, opts.TickSeconds)
	if err != nil {
		return Result{}, err
	}
	ctrl, err := newScheme(scheme, sys)
	if err != nil {
		return Result{}, err
	}
	opts.KeepTicks = false
	opts.PhaseSampleEvery = sampleEvery
	sess, err := sim.NewSession(sys, ctrl, opts)
	if err != nil {
		return Result{}, err
	}
	// Warmup: one full pass grows every scratch buffer to the largest
	// size this drive demands, so the measurement sees steady state.
	for _, cond := range conds {
		if _, err := sess.Step(cond); err != nil {
			return Result{}, err
		}
	}
	before := sess.Result().Phases
	var stepErr error
	i := 0
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := sess.Step(conds[i%len(conds)]); err != nil {
				stepErr = err
				b.FailNow()
			}
			i++
		}
	})
	if stepErr != nil {
		return Result{}, stepErr
	}
	r := fromBenchmark(br)
	if r.NsPerOp > 0 {
		r.TicksPerSec = 1e9 / r.NsPerOp
	}
	r.Phases = phaseFracs(before, sess.Result().Phases)
	return r.withModules(sys.Modules), nil
}

// benchTableScheme times one full Table I run of the named scheme and
// reports simulated ticks per wall-clock second.
func benchTableScheme(scheme string, seconds float64) (Result, error) {
	tr, err := benchTrace(seconds)
	if err != nil {
		return Result{}, err
	}
	sys, opts := sim.DefaultSystem(), sim.DefaultOptions()
	opts.KeepTicks = false
	var ticks atomic.Int64
	opts.OnTick = func(sim.Tick) { ticks.Add(1) }
	ctrl, err := newScheme(scheme, sys)
	if err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := sim.Run(context.Background(), sys, tr, ctrl, opts)
	if err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	if res.EnergyOutJ <= 0 {
		return Result{}, fmt.Errorf("%s harvested no energy", scheme)
	}
	r := Result{Iterations: 1, NsPerOp: float64(elapsed.Nanoseconds())}
	if secs := elapsed.Seconds(); secs > 0 {
		r.TicksPerSec = float64(ticks.Load()) / secs
	}
	return r.withModules(sys.Modules), nil
}

// liveTemps is a recorded live control sequence: the sensed
// temperatures and ambient every Decide of a session received, in tick
// order.
type liveTemps struct {
	temps    [][]float64
	ambientC []float64
}

// recorder is a Controller that keeps a copy of every distribution it
// is asked to decide on before delegating.
type recorder struct {
	core.Controller
	rec liveTemps
}

func (r *recorder) Decide(tick int, tempsC []float64, ambientC float64) (core.Decision, error) {
	r.rec.temps = append(r.rec.temps, append([]float64(nil), tempsC...))
	r.rec.ambientC = append(r.rec.ambientC, ambientC)
	return r.Controller.Decide(tick, tempsC, ambientC)
}

// recordLiveTemps drives an n-module INOR session through the first
// seconds of WLTC with the default sensor noise and records what its
// controller saw.
func recordLiveTemps(n int, seconds float64) (*liveTemps, error) {
	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		return nil, err
	}
	tr, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), cycle.Schedule())
	if err != nil {
		return nil, err
	}
	sys := sim.DefaultSystem()
	sys.Modules = n
	ctrl, err := newScheme("INOR", sys)
	if err != nil {
		return nil, err
	}
	rec := &recorder{Controller: ctrl}
	opts := sim.DefaultOptions()
	opts.KeepTicks = false
	sess, err := sim.NewSession(sys, rec, opts)
	if err != nil {
		return nil, err
	}
	for k := 0; float64(k)*opts.TickSeconds < seconds; k++ {
		cond, err := drive.ConditionsAt(tr, tr.Times[0]+float64(k)*opts.TickSeconds)
		if err != nil {
			return nil, err
		}
		if _, err := sess.Step(cond); err != nil {
			return nil, err
		}
	}
	return &rec.rec, nil
}

// benchDecideLive times one Decide of the named scheme at n modules,
// replaying the live sequence recorded at that size in tick order (DNOR's
// holding ticks included, so its figure is the amortised cost). One
// untimed pass first grows the scratch and warms DNOR's predictor.
func benchDecideLive(scheme string, n int, live func() (*liveTemps, error)) (Result, error) {
	rec, err := live()
	if err != nil {
		return Result{}, err
	}
	sys := sim.DefaultSystem()
	sys.Modules = n
	ctrl, err := newScheme(scheme, sys)
	if err != nil {
		return Result{}, err
	}
	tick := 0
	decide := func() error {
		k := tick % len(rec.temps)
		_, err := ctrl.Decide(tick, rec.temps[k], rec.ambientC[k])
		tick++
		return err
	}
	for range rec.temps {
		if err := decide(); err != nil {
			return Result{}, err
		}
	}
	var decErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decide(); err != nil {
				decErr = err
				b.FailNow()
			}
		}
	})
	if decErr != nil {
		return Result{}, decErr
	}
	r := fromBenchmark(br)
	if r.NsPerOp > 0 {
		r.TicksPerSec = 1e9 / r.NsPerOp
	}
	return r.withModules(n), nil
}

// benchSweep runs the whole cycle × scheme grid (scenario.CycleSweep)
// as matrix cells on the batch engine and reports aggregate simulated
// ticks/sec — the service's bulk-throughput number, on all cores.
func benchSweep(maxDuration float64) (Result, error) {
	m := scenario.CycleSweep(nil, nil, maxDuration)
	r, err := timeMatrixSweep(&m)
	return r.withModules(sim.DefaultSystem().Modules), err
}

// benchTwinSessions measures the digital-twin serving path under
// concurrency: several sessions stepped in parallel over HTTP, each
// walking the delivery cycle in batches — registry lookups, per-session
// locking, the bounded queue and the summary marshalling all inside the
// measured number. ticks_per_sec aggregates across twins.
func benchTwinSessions(quick bool) (Result, error) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const (
		twins   = 8
		batch   = 50
		modules = 100
	)
	batches := 24 // 1200 ticks/twin = 600 s of the 900 s delivery cycle
	if quick {
		batches = 6
	}
	post := func(path, body string) error {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return nil
	}
	ids := make([]string, twins)
	for i := range ids {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
			strings.NewReader(fmt.Sprintf(`{"scheme":"inor","modules":%d}`, modules)))
		if err != nil {
			return Result{}, err
		}
		var out struct {
			Session struct {
				ID string `json:"id"`
			} `json:"session"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || out.Session.ID == "" {
			return Result{}, fmt.Errorf("creating twin %d: %v", i, err)
		}
		ids[i] = out.Session.ID
	}
	stepBody := fmt.Sprintf(`{"cycle":"delivery","ticks":%d}`, batch)
	var wg sync.WaitGroup
	errs := make(chan error, twins)
	start := time.Now()
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := post("/v1/sessions/"+id+"/step", stepBody); err != nil {
					errs <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Result{}, err
	}
	total := int64(twins * batches * batch)
	if got := srv.Stats().SessionSteps; got != total {
		return Result{}, fmt.Errorf("server accounted %d session steps, want %d", got, total)
	}
	r := Result{Iterations: twins * batches, NsPerOp: float64(elapsed.Nanoseconds()) / float64(twins*batches)}
	if secs := elapsed.Seconds(); secs > 0 {
		r.TicksPerSec = float64(total) / secs
	}
	return r.withModules(modules), nil
}

// benchMatrixSpec is the fixed scenario matrix the two matrix suites
// share: 2 synthetic cycles × 4 schemes × 4 ambients × 2 flow splits ×
// 2 fault plans × 2 array sizes = 256 cells, every axis populated so
// the expansion walks all of its machinery (trace families, flow
// weights, storm seeding, coordinate hashing).
func benchMatrixSpec(cellDuration float64) *scenario.Matrix {
	return &scenario.Matrix{
		Version: scenario.SpecVersion,
		Name:    "tegbench",
		Cycles: []scenario.CycleSpec{
			{Synth: &scenario.SynthSpec{Profile: "urban", Seed: 1, DurationS: cellDuration}},
			{Synth: &scenario.SynthSpec{Profile: "highway", Seed: 2, DurationS: cellDuration, GradePct: 2}},
		},
		Ambients:   []scenario.AmbientSpec{{FromC: -10, ToC: 35, StepC: 15}},
		Flows:      []scenario.FlowSpec{{Paths: 1}, {Paths: 4, Maldistribution: 0.3}},
		Faults:     []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: 3}}},
		ArraySizes: []int{60, 100},
	}
}

// benchMatrixExpand measures compiling the 256-cell matrix into its
// deterministic job list: trace materialization, per-cell coordinate
// hashing and seed derivation — everything but the simulation itself.
// cells_per_sec is the admission-path number: what a tegserve instance
// pays before the first job runs.
func benchMatrixExpand() (Result, error) {
	m := benchMatrixSpec(30)
	n, err := m.Normalize()
	if err != nil {
		return Result{}, err
	}
	counts, err := n.Counts()
	if err != nil {
		return Result{}, err
	}
	var expErr error
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := m.Expand(); err != nil {
				expErr = err
				b.FailNow()
			}
		}
	})
	if expErr != nil {
		return Result{}, expErr
	}
	r := fromBenchmark(br)
	if r.NsPerOp > 0 {
		r.CellsPerSec = float64(counts.Cells) * 1e9 / r.NsPerOp
	}
	return r, nil
}

// benchMatrixSweep runs the same matrix end to end on the batch engine,
// all cores, and reports aggregate simulated ticks/sec. It reports no
// module_ticks_per_sec: its cells mix two array sizes.
func benchMatrixSweep(quick bool) (Result, error) {
	cellDuration := 30.0
	if quick {
		cellDuration = 15.0
	}
	return timeMatrixSweep(benchMatrixSpec(cellDuration))
}

// timeMatrixSweep runs a matrix on the batch engine, all cores, and
// reports aggregate simulated ticks/sec over its wall clock.
func timeMatrixSweep(m *scenario.Matrix) (Result, error) {
	var ticks atomic.Int64
	start := time.Now()
	if _, err := experiments.MatrixSweep(context.Background(), m, experiments.MatrixOptions{
		Workers: 0,
		OnTick:  func(sim.Tick) { ticks.Add(1) },
	}); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	r := Result{Iterations: 1, NsPerOp: float64(elapsed.Nanoseconds())}
	if secs := elapsed.Seconds(); secs > 0 {
		r.TicksPerSec = float64(ticks.Load()) / secs
	}
	return r, nil
}

// benchSweepSharded measures the distributed sweep tier end to end: a
// coordinator tegserve dispatching one cycle sweep's matrix cells as
// cell shards to two in-process worker servers over HTTP
// (internal/serve's /v1/shards protocol) and merging the cells into
// the sweep table. ticks_per_sec aggregates the workers' simulated
// control periods over the coordinator's wall clock, so the number
// carries the full dispatch + merge + transport overhead.
func benchSweepSharded(quick bool) (Result, error) {
	maxDuration := 60.0
	if quick {
		maxDuration = 20.0
	}
	workers := make([]*serve.Server, 2)
	peers := make([]string, len(workers))
	for i := range workers {
		workers[i] = serve.New(serve.Config{})
		ts := httptest.NewServer(workers[i].Handler())
		defer ts.Close()
		peers[i] = ts.URL
	}
	coord := serve.New(serve.Config{WorkerPeers: peers})
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	const modules = 20
	body := fmt.Sprintf(`{"cycles":["wltc","delivery","nedc"],"schemes":["inor","dnor"],"max_duration_s":%g,"modules":%d}`, maxDuration, modules)
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		return Result{}, err
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return Result{}, err
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return Result{}, fmt.Errorf("status %d", resp.StatusCode)
	}

	cs := coord.Stats()
	if cs.ShardsDispatched < 2 {
		return Result{}, fmt.Errorf("coordinator dispatched %d shards, want >= 2", cs.ShardsDispatched)
	}
	if cs.ShardRetries != 0 {
		return Result{}, fmt.Errorf("%d shards fell back to local compute in a healthy fleet", cs.ShardRetries)
	}
	if cs.Ticks != 0 {
		return Result{}, fmt.Errorf("coordinator simulated %d ticks itself", cs.Ticks)
	}
	var ticks int64
	for _, w := range workers {
		ticks += w.Stats().Ticks
	}
	if ticks == 0 {
		return Result{}, fmt.Errorf("workers simulated nothing")
	}
	r := Result{Iterations: 1, NsPerOp: float64(elapsed.Nanoseconds())}
	if secs := elapsed.Seconds(); secs > 0 {
		r.TicksPerSec = float64(ticks) / secs
	}
	return r.withModules(modules), nil
}

// fromBenchmark converts a testing.BenchmarkResult.
func fromBenchmark(br testing.BenchmarkResult) Result {
	bytesPerOp, allocsPerOp := br.AllocedBytesPerOp(), br.AllocsPerOp()
	return Result{
		Iterations:  br.N,
		NsPerOp:     nsPerOp(br),
		BytesPerOp:  &bytesPerOp,
		AllocsPerOp: &allocsPerOp,
	}
}

func nsPerOp(br testing.BenchmarkResult) float64 {
	if br.N <= 0 {
		return 0
	}
	return float64(br.T.Nanoseconds()) / float64(br.N)
}
