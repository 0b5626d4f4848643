// Command tegsim reproduces Table I of the paper end to end: it
// synthesises the 800 s drive trace, runs DNOR, INOR, EHTR and the
// static 10×10 baseline over the 100-module radiator system, and prints
// the energy / overhead / runtime comparison with the paper's headline
// ratios. Every study it runs, Table I included, is one or more
// scenario matrices (internal/scenario) run on the batch engine, each
// cell seeded from its coordinate, so the same matrix posted to
// tegserve's /v1/matrix returns the same cells.
//
// Usage:
//
//	tegsim [-duration 800] [-modules 100] [-seed 42] [-tick 0.5] [-horizon 4]
//	       [-study table1|faults|seeds|margins|bank|horizon|predictors|window|scenarios]
//	       [-workers 0] [-format text|csv|json]
//	tegsim -scenarios [-scenario-duration 0] [-workers 0] [-format text|csv|json]
//	tegsim -scheme dnor [-json]
//	tegsim -matrix spec.json [-workers 0] [-format text|csv|json]
//	tegsim -synth profile=highway,seed=9,grade=3 [-study table1]
//
// -matrix runs a declarative scenario matrix (internal/scenario's
// versioned JSON schema): drive cycles × schemes × ambients × flow
// splits × fault plans × array sizes, expanded into a deterministic
// cell list and run on the batch engine. Output is the per-cell table
// plus per-axis marginal roll-ups; -format json emits the same
// envelope POST /v1/matrix serves. Cell results are bit-identical at
// any -workers count.
//
// -synth replaces the stochastic trace the non-scenario studies drive
// on, exposing the generator's whole family surface (profile, grade,
// stop frequency, speed scale, cold start) in one spec; it subsumes
// -duration and -seed, so combining them is refused.
//
// -scenarios (or -study scenarios) runs every registered standard drive
// cycle (NEDC, WLTC, FTP-75, HWFET, US06, delivery) under all four
// schemes as the cells of a scenario matrix, built from -modules, -tick,
// -horizon and -scenario-duration (a cap on each cycle's simulated
// seconds; 0 = full published schedule). It prints one row per (cycle,
// scheme), the same table POST /v1/sweeps serves for the same cap. The
// cycles are prescribed-speed, so -duration, -seed and -synth (which
// shape the stochastic trace) are refused in this mode, and
// -scenario-duration outside it.
//
// Every other study drives the stochastic trace (-synth, or -duration
// and -seed) at -modules, -tick and -horizon. table1 runs the four
// schemes. horizon, predictors and margins put DNOR variants on the
// scheme axis and print one row per variant: horizons 1, 2, 4, 6 and 8
// ticks ("DNOR:horizon=8"); the MLR, BPNN, SVR, Holt, Hold and oracle
// predictors ("DNOR:predictor=oracle"); extra switch margins of 0,
// 0.25, 0.5, 1 and 2 J ("DNOR:margin_j=0.5"). A variant equal to the
// default prints as plain DNOR. faults runs DNOR, INOR and the baseline
// with no faults and under a storm of -failures random module failures;
// seeds runs them over -seeds copies of the trace reseeded 101·k; bank
// runs INOR and the baseline over 5 radiator paths at maldistribution
// 0, 0.2, 0.4 and 0.6. window is the Ext-C converter input-window
// ablation: INOR over the LTM4607's full [4.5, 36] V band and two
// narrower ones, one matrix per band (the matrices' converter_input_v),
// whose full-band row is Table I's INOR cell. A matrix reads trace seed
// 0 as its default, so -seed 0 is refused. -failures and -seeds are
// refused outside their study, -seed under -study seeds, and -horizon
// under -study horizon.
//
// Controller runtime (Table I's "Average Runtime" row and the runtime
// part of every switching overhead) is priced from a closed-form count
// of each published algorithm's operations, not measured, so every
// study's output is byte-identical across runs and at any -workers
// count.
//
// -scheme runs Table I's cell for one scheme instead of a study: the
// same trace, system and coordinate seed, run with every tick kept, so
// its totals are that cell's bit for bit. With -json the full run
// Result (including every per-control-period tick) is emitted in the
// versioned report schema — the same payload the tegserve API serves.
// -json is refused without -scheme.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/obs"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/termline"
)

// progressMeter streams a live tick counter to stderr. It is installed
// as Options.OnTick, so it fires from every batch worker at once — the
// counter is atomic and termline's redraw claim keeps the printing safe
// and cheap on the hot path.
type progressMeter struct {
	ticks atomic.Int64
	line  *termline.Printer
}

func newProgressMeter() *progressMeter {
	return &progressMeter{line: termline.New()}
}

func (p *progressMeter) observe(sim.Tick) {
	p.line.Printf("simulated %d control periods...", p.ticks.Add(1))
}

// done clears the progress line so results start on a clean row.
func (p *progressMeter) done() {
	p.line.Clear()
}

func main() {
	// Library code logs through slog; a CLI run wants that quiet unless
	// something is actually wrong. slog.SetDefault also reroutes the log
	// package into that Warn-level handler at Info level, which would
	// swallow every fatal reason, so the log package is pointed back at
	// stderr afterwards.
	slog.SetDefault(obs.MustLogger(os.Stderr, slog.LevelWarn, "text"))
	log.SetOutput(os.Stderr)
	log.SetFlags(0)
	log.SetPrefix("tegsim: ")
	var (
		duration = flag.Float64("duration", 800, "drive duration in seconds")
		modules  = flag.Int("modules", 100, "TEG module count")
		seed     = flag.Int64("seed", 42, "drive-trace random seed")
		tick     = flag.Float64("tick", 0.5, "control period in seconds")
		horizon  = flag.Int("horizon", 4, "DNOR prediction horizon in ticks")
		study    = flag.String("study", "table1", "study to run: table1, faults, seeds, margins, bank, horizon, predictors, window or scenarios")
		failures = flag.Int("failures", 15, "module failures for -study faults")
		seeds    = flag.Int("seeds", 5, "trace count for -study seeds")
		format   = flag.String("format", "text", "output format: text, csv or json")
		workers  = flag.Int("workers", 0, "worker pool for independent runs: 0 = all CPUs, 1 = serial; output is byte-identical at any count")

		scenarios   = flag.Bool("scenarios", false, "shorthand for -study scenarios: sweep every standard drive cycle under all four schemes")
		scenarioCap = flag.Float64("scenario-duration", 0, "cap each scenario cycle at this many seconds (0 = full published schedule)")

		// The -scheme usage text advertises exactly the registered
		// schemes, so a new registry entry shows up here without a CLI
		// edit — the same contract tegtrace's -cycle has with the drive
		// registry.
		scheme  = flag.String("scheme", "", "run a single scheme ("+strings.Join(sim.SchemeNames(), ", ")+") over the trace instead of a -study")
		jsonOut = flag.Bool("json", false, "with -scheme, emit the full run Result as versioned JSON (report schema)")

		matrixPath = flag.String("matrix", "", "scenario-matrix spec file (versioned JSON, internal/scenario schema); runs the matrix instead of a -study")
		synthSpec  = flag.String("synth", "", drive.SynthSpecUsage()+"; replaces -duration/-seed for the stochastic trace")
	)
	flag.Parse()
	if *scenarios {
		*study = "scenarios"
	}
	// Scheme.New treats horizon 0 as "use the default"; at the CLI an
	// explicit -horizon 0 is a mistake and must not silently become 4.
	if *horizon < 1 {
		log.Fatalf("-horizon %d: DNOR needs a prediction horizon of at least 1 tick", *horizon)
	}
	// -scheme and -matrix each replace the study entirely, so combining
	// them would silently discard whichever one the user meant; refuse
	// instead. -synth subsumes the flags that shape the stochastic
	// trace, so those combinations are ambiguous too.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *scheme != "" {
		for _, name := range []string{"study", "scenarios", "matrix"} {
			if set[name] {
				log.Fatalf("-scheme runs a single simulation and cannot be combined with -%s", name)
			}
		}
	}
	if *matrixPath != "" {
		for _, name := range []string{"study", "scenarios", "scenario-duration", "synth", "duration", "seed", "modules", "tick", "horizon"} {
			if set[name] {
				log.Fatalf("-matrix takes every axis from the spec file and cannot be combined with -%s", name)
			}
		}
	}
	if *synthSpec != "" {
		for _, name := range []string{"duration", "seed"} {
			if set[name] {
				log.Fatalf("-synth carries its own %s= key and cannot be combined with -%s", name, name)
			}
		}
	}
	// The scenario sweep drives prescribed-speed cycles, so the flags
	// that shape the stochastic trace have nothing to act on there, and
	// its cycle cap has nothing to act on anywhere else.
	if *study == "scenarios" {
		for _, name := range []string{"synth", "duration", "seed"} {
			if set[name] {
				log.Fatalf("-study scenarios drives the standard cycles and cannot be combined with -%s", name)
			}
		}
	} else if set["scenario-duration"] {
		log.Fatalf("-scenario-duration only applies to -study scenarios")
	}
	if *jsonOut && *scheme == "" {
		log.Fatalf("-json only applies to -scheme; studies take -format json")
	}
	if *study == "horizon" && set["horizon"] {
		log.Fatalf("-study horizon sweeps its own horizons and cannot be combined with -horizon")
	}
	if set["failures"] && *study != "faults" {
		log.Fatalf("-failures only applies to -study faults")
	}
	if *study == "seeds" {
		// Every trace of the sweep is seeded 101·k, so -seed has
		// nothing to act on.
		if set["seed"] {
			log.Fatalf("-study seeds seeds its own traces and cannot be combined with -seed")
		}
		if *seeds < 2 {
			log.Fatalf("-seeds %d: the seed sweep needs at least 2 traces", *seeds)
		}
	} else if set["seeds"] {
		log.Fatalf("-seeds only applies to -study seeds")
	}

	// SIGINT/SIGTERM cancel the context; every study threads it down to
	// the per-tick check of each simulation run, so one Ctrl-C stops the
	// whole worker pool within a control period instead of killing the
	// process mid-write. A second signal falls through to the default
	// handler and kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *matrixPath != "" {
		if err := runMatrix(ctx, *matrixPath, *workers, report.Format(*format)); err != nil {
			if errors.Is(err, context.Canceled) {
				log.Fatalf("interrupted: %v", err)
			}
			log.Fatal(err)
		}
		return
	}

	meter := newProgressMeter()
	fail := func(err error) {
		meter.done()
		if errors.Is(err, context.Canceled) {
			log.Fatalf("interrupted after %d simulated control periods: %v", meter.ticks.Load(), err)
		}
		log.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = *duration
	cfg.Seed = *seed
	if *synthSpec != "" {
		var err error
		if cfg, err = drive.ParseSynthSpec(*synthSpec); err != nil {
			log.Fatal(err)
		}
		*duration = cfg.Duration // studies report the simulated span
	}
	if err := cfg.Validate(); err != nil { // a study's matrix would read duration 0 as 800 s
		log.Fatal(err)
	}

	base := scenario.Matrix{TickS: *tick, HorizonTicks: *horizon, ArraySizes: []int{*modules}, MaxDurationS: *scenarioCap}
	if *scheme != "" {
		base.Schemes = []string{*scheme}
	}
	ms, render, err := studyMatrix(*study, base, cfg, *failures, *seeds)
	if err != nil {
		log.Fatal(err)
	}

	// A single named scheme instead of a study: Table I's cell for that
	// scheme run with every tick kept, so its totals are the table's —
	// and with -json the same versioned payload the tegserve API serves.
	if *scheme != "" {
		ex, err := ms[0].Expand()
		if err != nil {
			log.Fatal(err)
		}
		runs, err := experiments.RunCells(ctx, ex, experiments.MatrixOptions{OnTick: meter.observe})
		if err != nil {
			fail(err)
		}
		meter.done()
		res := runs[0]
		if *jsonOut {
			b, err := report.MarshalResult(res)
			if err != nil {
				log.Fatal(err)
			}
			b = append(b, '\n')
			if _, err := os.Stdout.Write(b); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Printf("%s over %.0f s: %.1f J delivered, %.1f J switch overhead, %d reconfigurations (%d toggles), ideal %.1f J\n",
			res.Scheme, *duration, res.EnergyOutJ, res.OverheadJ, res.SwitchEvents, res.SwitchToggles, res.IdealEnergyJ)
		return
	}

	var cells []experiments.MatrixCell
	for _, m := range ms {
		res, err := experiments.MatrixSweep(ctx, m, experiments.MatrixOptions{Workers: *workers, OnTick: meter.observe})
		if err != nil {
			fail(err)
		}
		cells = append(cells, res.Cells...)
	}
	meter.done()
	if *study == "table1" && *format == "text" {
		// Table I's text form is the paper's transposed layout with the
		// headline ratios, not a report table.
		res, err := experiments.TableI(ms[0], cells)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("TEG reconfiguration comparison — %d modules, %.0f s drive, %.1f s control period\n\n",
			*modules, *duration, *tick)
		fmt.Print(res.Render())
		return
	}
	tab, err := render(ms, cells)
	if err != nil {
		log.Fatal(err)
	}
	if err := tab.Write(os.Stdout, report.Format(*format)); err != nil {
		log.Fatal(err)
	}
}
