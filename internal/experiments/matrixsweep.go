package experiments

import (
	"context"
	"fmt"
	"time"

	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
)

// MatrixCell is one scenario-matrix cell with its folded results: a
// multi-path cell's per-path runs are summed (one charger per path, as
// in the Ext-G bank study), so EnergyOutJ is always "whole radiator"
// energy.
type MatrixCell struct {
	scenario.Cell
	EnergyOutJ    float64 `json:"energy_out_j"`
	OverheadJ     float64 `json:"overhead_j"`
	IdealEnergyJ  float64 `json:"ideal_energy_j"`
	SwitchEvents  int     `json:"switch_events"`
	SwitchToggles int     `json:"switch_toggles"`
	// Jobs is the number of simulation runs folded into this cell
	// (the cell's path count).
	Jobs int `json:"jobs"`
	// AvgRuntime is the priced controller runtime per tick, summed over
	// the cell's paths like the totals above.
	AvgRuntime time.Duration `json:"avg_runtime_ns"`
}

// Ratio is delivered/ideal energy (0 when the ideal is 0).
func (c MatrixCell) Ratio() float64 {
	if c.IdealEnergyJ <= 0 {
		return 0
	}
	return c.EnergyOutJ / c.IdealEnergyJ
}

// MatrixResult is a completed matrix sweep in stable cell order.
type MatrixResult struct {
	Name  string       `json:"name,omitempty"`
	Cells []MatrixCell `json:"cells"`
}

// MatrixOptions tunes the sweep engine, not the physics — nothing here
// can change a cell's numbers.
type MatrixOptions struct {
	// Workers bounds the batch worker pool (0 → NumCPU, 1 → one job at
	// a time).
	Workers int
	// OnTick, when non-nil, observes every simulated control period —
	// the aggregate progress feed. It may be called concurrently from
	// worker goroutines.
	OnTick func(sim.Tick)
}

// MatrixSweep expands the matrix and runs every job on the batch
// engine, folding per-path results into cells. Serial and parallel runs
// are bit-identical because every job is seeded from its cell
// coordinate and prices controller runtime from counted work. The
// context reaches
// every run's per-tick check, so a cancel aborts the sweep within one
// control period.
func MatrixSweep(ctx context.Context, m *scenario.Matrix, opts MatrixOptions) (*MatrixResult, error) {
	ex, err := m.Expand()
	if err != nil {
		return nil, err
	}
	return RunExpansion(ctx, ex, opts)
}

// RunExpansion runs an already-expanded matrix as one batch — the entry
// point for callers that need the Expansion themselves (serve's
// per-cell cache addressing, and its shards: a Subset of the expansion,
// down to one cell for per-cell stream progress). Cancellation behaves
// as in MatrixSweep.
func RunExpansion(ctx context.Context, ex *scenario.Expansion, opts MatrixOptions) (*MatrixResult, error) {
	for i := range ex.Jobs {
		ex.Jobs[i].Opts.KeepTicks = false
		ex.Jobs[i].Opts.OnTick = opts.OnTick
	}
	out := &MatrixResult{Name: ex.Matrix.Name, Cells: make([]MatrixCell, len(ex.Cells))}
	for i, c := range ex.Cells {
		out.Cells[i] = MatrixCell{Cell: c}
	}
	results, err := sim.Batch{Workers: opts.Workers}.Run(ctx, ex.Jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: matrix sweep: %w", err)
	}
	for i, r := range results {
		c := &out.Cells[ex.CellOf[i]]
		c.EnergyOutJ += r.EnergyOutJ
		c.OverheadJ += r.OverheadJ
		c.IdealEnergyJ += r.IdealEnergyJ
		c.SwitchEvents += r.SwitchEvents
		c.SwitchToggles += r.SwitchToggles
		c.AvgRuntime += r.AvgRuntime
		c.Jobs++
	}
	return out, nil
}

// RunCells runs an expansion whose cells each own one job with every
// tick kept, and returns each cell's full Result in cell order: the
// per-tick view of the same runs RunExpansion folds (a `tegsim -scheme`
// run, Figs. 6/7). Each Result holds one Tick per control period, so
// it suits a handful of cells, not a sweep.
func RunCells(ctx context.Context, ex *scenario.Expansion, opts MatrixOptions) ([]*sim.Result, error) {
	if len(ex.Jobs) != len(ex.Cells) {
		return nil, fmt.Errorf("experiments: %d jobs for %d cells: a multi-path cell has no single tick series", len(ex.Jobs), len(ex.Cells))
	}
	for i := range ex.Jobs {
		ex.Jobs[i].Opts.KeepTicks = true
		ex.Jobs[i].Opts.OnTick = opts.OnTick
	}
	return sim.Batch{Workers: opts.Workers}.Run(ctx, ex.Jobs)
}

// MatrixMarginal is one axis value's roll-up across every cell that
// carries it — the "what does ambient do, averaged over everything
// else" view a full-factorial matrix exists to answer.
type MatrixMarginal struct {
	// Axis is "cycle", "scheme", "ambient", "flow", "fault" or
	// "modules".
	Axis string `json:"axis"`
	// Value is the axis value's display form.
	Value string `json:"value"`
	// Cells is how many cells carry this value.
	Cells int `json:"cells"`
	// MeanEnergyJ is the mean delivered energy over those cells.
	MeanEnergyJ float64 `json:"mean_energy_j"`
	// MeanOverheadJ is the mean switching overhead.
	MeanOverheadJ float64 `json:"mean_overhead_j"`
	// MeanRatio is the mean delivered/ideal ratio.
	MeanRatio float64 `json:"mean_ratio"`
}

// axisValue renders one cell's value on one axis.
func axisValue(axis string, c MatrixCell) string {
	switch axis {
	case "cycle":
		return c.Cycle
	case "scheme":
		return c.Scheme
	case "ambient":
		v := fmt.Sprintf("%g", c.AmbientC)
		if c.CoolantOffsetC != 0 {
			v += fmt.Sprintf("%+g", c.CoolantOffsetC)
		}
		return v
	case "flow":
		if c.Paths == 1 {
			return "1"
		}
		return fmt.Sprintf("%dxm%g", c.Paths, c.Maldistribution)
	case "fault":
		return c.Fault
	case "modules":
		return fmt.Sprintf("%d", c.Modules)
	default:
		return "?"
	}
}

// MarginalAxes lists the axes Marginals rolls up, in report order.
var MarginalAxes = []string{"cycle", "scheme", "ambient", "flow", "fault", "modules"}

// Marginals rolls the cell grid up one axis at a time. Values appear
// in first-encounter order over the stable cell list, so the output is
// as deterministic as the cells themselves.
func (r *MatrixResult) Marginals() []MatrixMarginal {
	var out []MatrixMarginal
	for _, axis := range MarginalAxes {
		idx := map[string]int{}
		var vals []string
		sums := map[string]*MatrixMarginal{}
		for _, c := range r.Cells {
			v := axisValue(axis, c)
			if _, ok := idx[v]; !ok {
				idx[v] = len(vals)
				vals = append(vals, v)
				sums[v] = &MatrixMarginal{Axis: axis, Value: v}
			}
			mg := sums[v]
			mg.Cells++
			mg.MeanEnergyJ += c.EnergyOutJ
			mg.MeanOverheadJ += c.OverheadJ
			mg.MeanRatio += c.Ratio()
		}
		if len(vals) < 2 {
			// A collapsed axis has nothing marginal to say.
			continue
		}
		for _, v := range vals {
			mg := sums[v]
			n := float64(mg.Cells)
			mg.MeanEnergyJ /= n
			mg.MeanOverheadJ /= n
			mg.MeanRatio /= n
			out = append(out, *mg)
		}
	}
	return out
}
