package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tegrecon/internal/drive"
	"tegrecon/internal/sim"
)

// ScenarioOptions tunes the scenario sweep.
type ScenarioOptions struct {
	// Cycles selects the workloads; nil runs every registered standard
	// cycle (drive.Cycles()).
	Cycles []drive.Cycle
	// Schemes selects the reconfiguration schemes by registry name
	// (sim.SchemeNames); nil runs all of them in registry order.
	Schemes []string
	// MaxDuration caps each cycle's simulated span in seconds; 0 runs
	// every cycle to its full published length.
	MaxDuration float64
}

// ScenarioCell is one (cycle, scheme) entry of the sweep matrix — the
// Table I quantities of that scheme on that workload.
type ScenarioCell struct {
	Cycle         string
	Scheme        string
	DurationS     float64
	EnergyOutJ    float64
	OverheadJ     float64
	SwitchEvents  int
	SwitchToggles int
	AvgRuntime    time.Duration
	IdealEnergyJ  float64
}

// ScenarioSweepResult is the cycle × scheme matrix.
type ScenarioSweepResult struct {
	// Schemes are the column labels, in run order.
	Schemes []string
	// Cells is row-major: Cells[i][j] is cycle i under scheme j.
	Cells [][]ScenarioCell
}

// scenarioSchemes validates the scheme selection. A nil selection runs
// the whole registry, whose order follows the paper's presentation:
// static baseline first, then INOR, DNOR, EHTR.
func scenarioSchemes(names []string) ([]string, error) {
	if names == nil {
		names = sim.SchemeNames()
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("experiments: scenario sweep with no schemes")
	}
	for _, name := range names {
		if _, err := sim.SchemeByName(name); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return names, nil
}

// ScenarioSweep runs every selected cycle under all four reconfiguration
// schemes on the batch engine: the whole matrix is one job list, so a
// single worker pool (s.Opts.Workers) spans cycles and schemes alike.
// The cycle traces are prescribed-speed and therefore deterministic;
// with s.Opts.DeterministicRuntime set the whole sweep is bit-identical
// at any worker count.
// The context reaches every job's per-tick check, so a cancel aborts
// each in-flight run within one control period and no further jobs
// start.
func ScenarioSweep(ctx context.Context, s *Setup, opts ScenarioOptions) (*ScenarioSweepResult, error) {
	cycles := opts.Cycles
	if cycles == nil {
		cycles = drive.Cycles()
	}
	if len(cycles) == 0 {
		return nil, fmt.Errorf("experiments: scenario sweep with no cycles")
	}
	if opts.MaxDuration < 0 {
		return nil, fmt.Errorf("experiments: negative scenario duration cap %g", opts.MaxDuration)
	}
	schemes, err := scenarioSchemes(opts.Schemes)
	if err != nil {
		return nil, err
	}

	runOpts := s.summaryOpts()
	var jobs []sim.Job
	for _, cy := range cycles {
		cfg := drive.DefaultSynthConfig()
		cfg.Duration = opts.MaxDuration // 0 → full schedule
		tr, err := drive.FromSpeedSchedule(cfg, cy.Schedule())
		if err != nil {
			return nil, fmt.Errorf("experiments: cycle %s: %w", cy.Name, err)
		}
		// Controllers carry mutable state, so every job gets its own.
		for _, name := range schemes {
			ctrl, err := s.NewScheme(name)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, sim.Job{Sys: s.Sys, Trace: tr, Ctrl: ctrl, Opts: runOpts})
		}
	}
	results, err := sim.Batch{Workers: s.Opts.Workers}.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}

	out := &ScenarioSweepResult{}
	perCycle := len(schemes)
	for i, cy := range cycles {
		row := make([]ScenarioCell, perCycle)
		for j := 0; j < perCycle; j++ {
			r := results[i*perCycle+j]
			row[j] = ScenarioCell{
				Cycle:         cy.Name,
				Scheme:        r.Scheme,
				DurationS:     jobs[i*perCycle+j].Trace.Duration(),
				EnergyOutJ:    r.EnergyOutJ,
				OverheadJ:     r.OverheadJ,
				SwitchEvents:  r.SwitchEvents,
				SwitchToggles: r.SwitchToggles,
				AvgRuntime:    r.AvgRuntime,
				IdealEnergyJ:  r.IdealEnergyJ,
			}
			if i == 0 {
				out.Schemes = append(out.Schemes, r.Scheme)
			}
		}
		out.Cells = append(out.Cells, row)
	}
	return out, nil
}

// cell looks a scheme's cell up within one cycle row.
func (r *ScenarioSweepResult) cell(row []ScenarioCell, scheme string) *ScenarioCell {
	for i := range row {
		if row[i].Scheme == scheme {
			return &row[i]
		}
	}
	return nil
}

// Render formats the sweep as three stacked Table-I-style matrices
// (energy, switch events, average runtime) with a DNOR-vs-static gain
// column.
func (r *ScenarioSweepResult) Render() string {
	var sb strings.Builder
	section := func(title string, cellText func(c *ScenarioCell) string, extra bool) {
		fmt.Fprintf(&sb, "%s\n", title)
		fmt.Fprintf(&sb, "%-10s %7s", "cycle", "dur_s")
		for _, s := range r.Schemes {
			fmt.Fprintf(&sb, "%12s", s)
		}
		if extra {
			fmt.Fprintf(&sb, "%12s", "DNOR gain")
		}
		sb.WriteByte('\n')
		for _, row := range r.Cells {
			fmt.Fprintf(&sb, "%-10s %7.0f", row[0].Cycle, row[0].DurationS)
			for _, s := range r.Schemes {
				c := r.cell(row, s)
				if c == nil {
					fmt.Fprintf(&sb, "%12s", "?")
					continue
				}
				fmt.Fprintf(&sb, "%12s", cellText(c))
			}
			if extra {
				gain := "/"
				d, b := r.cell(row, "DNOR"), r.cell(row, "Baseline")
				if d != nil && b != nil && b.EnergyOutJ > 0 {
					gain = fmt.Sprintf("%+.1f%%", 100*(d.EnergyOutJ/b.EnergyOutJ-1))
				}
				fmt.Fprintf(&sb, "%12s", gain)
			}
			sb.WriteByte('\n')
		}
		sb.WriteByte('\n')
	}
	section("Energy output (J)", func(c *ScenarioCell) string {
		return fmt.Sprintf("%.1f", c.EnergyOutJ)
	}, true)
	section("Switch events", func(c *ScenarioCell) string {
		return fmt.Sprintf("%d", c.SwitchEvents)
	}, false)
	// A deterministic-runtime sweep reports zero everywhere; skip the
	// all-zero matrix instead of printing noise.
	measured := false
	for _, row := range r.Cells {
		for _, c := range row {
			if c.AvgRuntime > 0 {
				measured = true
			}
		}
	}
	if measured {
		section("Average runtime (ms)", func(c *ScenarioCell) string {
			if c.Scheme == "Baseline" {
				return "/"
			}
			return fmt.Sprintf("%.4f", float64(c.AvgRuntime)/1e6)
		}, false)
	} else {
		sb.WriteString("(runtime matrix omitted: deterministic-runtime run)\n")
	}
	return strings.TrimRight(sb.String(), "\n") + "\n"
}
