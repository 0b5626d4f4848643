package report

import (
	"fmt"
	"strconv"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
	"tegrecon/internal/stats"
)

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func pct(v float64) string {
	return strconv.FormatFloat(100*v, 'f', 1, 64) + "%"
}

// share renders num/den as a percentage, or "/" when den is not
// positive.
func share(num, den float64) string {
	if den <= 0 {
		return "/"
	}
	return pct(num / den)
}

// FromTableI converts the Table I result.
func FromTableI(r *experiments.TableIResult) *Table {
	t := &Table{
		Title:  "Table I — energy / overhead / runtime comparison",
		Header: []string{"scheme", "energy_j", "overhead_j", "avg_runtime_ms", "switch_events"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Scheme,
			f1(row.EnergyOutJ),
			f2(row.OverheadJ),
			f4(float64(row.AvgRuntime) / 1e6),
			strconv.Itoa(row.SwitchEvents),
		})
	}
	return t
}

// FromWindow converts the Ext-C converter-window ablation.
func FromWindow(pts []experiments.WindowPoint) *Table {
	t := &Table{
		Title:  "Ext-C — converter input-window ablation",
		Header: []string{"min_input_v", "max_input_v", "energy_j"},
	}
	for _, p := range pts {
		t.Rows = append(t.Rows, []string{f1(p.MinInput), f1(p.MaxInput), f1(p.EnergyOutJ)})
	}
	return t
}

// FromFaultStudy renders the Ext-E fault-tolerance grid: one row per
// (fault plan, scheme) of the normalized matrix m, in its axis order,
// each faulted cell against the same scheme's fault-free cell. retained
// is faulted over healthy energy, capture_of_ideal the faulted cell's
// share of its surviving modules' ideal energy.
func FromFaultStudy(m *scenario.Matrix, cells []experiments.MatrixCell) *Table {
	type rowKey struct{ fault, scheme string }
	byRow := make(map[rowKey]experiments.MatrixCell, len(cells))
	for _, c := range cells {
		byRow[rowKey{c.Fault, c.Scheme}] = c
	}
	healthy := ""
	for _, f := range m.Faults {
		if len(f.Events) == 0 && f.Storm == nil {
			healthy = f.Name
		}
	}
	t := &Table{
		Title:  "Ext-E — module-failure tolerance",
		Header: []string{"fault", "scheme", "healthy_j", "faulted_j", "retained", "capture_of_ideal"},
	}
	for _, f := range m.Faults {
		if f.Name == healthy {
			continue
		}
		for _, sch := range m.Schemes {
			h, c := byRow[rowKey{healthy, sch}], byRow[rowKey{f.Name, sch}]
			t.Rows = append(t.Rows, []string{
				f.Name, sch, f1(h.EnergyOutJ), f1(c.EnergyOutJ),
				share(c.EnergyOutJ, h.EnergyOutJ), share(c.EnergyOutJ, c.IdealEnergyJ),
			})
		}
	}
	return t
}

// FromSeedSweep renders the Ext-F robustness sweep over the cycles of
// the normalized matrix m: DNOR's gain over the static baseline and
// INOR's switching overhead over DNOR's (INOR stands in for
// reconfiguring every period without EHTR's cubic runtime), summarized
// across cycles, and on how many cycles DNOR delivers at least INOR's
// energy.
func FromSeedSweep(m *scenario.Matrix, cells []experiments.MatrixCell) *Table {
	type rowKey struct{ cycle, scheme string }
	byRow := make(map[rowKey]experiments.MatrixCell, len(cells))
	for _, c := range cells {
		byRow[rowKey{c.Cycle, c.Scheme}] = c
	}
	var gains, ratios []float64
	beats := 0
	for _, cy := range m.Cycles {
		d, i, b := byRow[rowKey{cy.Label, "DNOR"}], byRow[rowKey{cy.Label, "INOR"}], byRow[rowKey{cy.Label, "Baseline"}]
		gains = append(gains, d.EnergyOutJ/b.EnergyOutJ-1)
		if d.OverheadJ > 0 {
			ratios = append(ratios, i.OverheadJ/d.OverheadJ)
		}
		if d.EnergyOutJ >= i.EnergyOutJ {
			beats++
		}
	}
	// Summarize fails only on an empty input: a normalized matrix has a
	// cycle, and no DNOR overhead on any cycle leaves the ratios zero.
	g, _ := stats.Summarize(gains)
	r, _ := stats.Summarize(ratios)
	return &Table{
		Title:  "Ext-F — seed-sweep robustness",
		Header: []string{"seeds", "gain_mean", "gain_std", "gain_min", "overhead_ratio_mean", "overhead_ratio_min", "dnor_beats_inor"},
		Rows: [][]string{{
			strconv.Itoa(len(m.Cycles)),
			pct(g.Mean), pct(g.Std), pct(g.Min),
			f1(r.Mean), f1(r.Min),
			fmt.Sprintf("%d/%d", beats, len(m.Cycles)),
		}},
	}
}

// FromBank renders the Ext-G 2-D radiator bank grid: one row per flow
// level of the normalized matrix m, in its axis order, INOR against the
// static baseline. A cell already sums its paths' energies.
func FromBank(m *scenario.Matrix, cells []experiments.MatrixCell) *Table {
	type rowKey struct {
		scheme string
		flow   scenario.FlowSpec
	}
	byRow := make(map[rowKey]experiments.MatrixCell, len(cells))
	for _, c := range cells {
		byRow[rowKey{c.Scheme, scenario.FlowSpec{Paths: c.Paths, Maldistribution: c.Maldistribution}}] = c
	}
	t := &Table{
		Title:  "Ext-G — 2-D radiator bank with flow maldistribution",
		Header: []string{"maldistribution", "paths", "inor_j", "baseline_j", "gain"},
	}
	for _, fl := range m.Flows {
		in, base := byRow[rowKey{"INOR", fl}], byRow[rowKey{"Baseline", fl}]
		gain := "/"
		if base.EnergyOutJ > 0 {
			gain = pct(in.EnergyOutJ/base.EnergyOutJ - 1)
		}
		t.Rows = append(t.Rows, []string{
			f2(fl.Maldistribution), strconv.Itoa(fl.Paths),
			f1(in.EnergyOutJ), f1(base.EnergyOutJ), gain,
		})
	}
	return t
}

// FromSweep renders the cells of a scenario.CycleSweep grid as the
// cycle × scheme table, one row per (cycle, scheme) in the order of the
// normalized matrix m — each cycle as listed under each scheme as
// listed, not the cells' coordinate order. Matrix cells price runtime
// deterministically, so avg_runtime_ms is always zero.
func FromSweep(m *scenario.Matrix, cells []experiments.MatrixCell) *Table {
	type rowKey struct{ cycle, scheme string }
	byRow := make(map[rowKey]experiments.MatrixCell, len(cells))
	for _, c := range cells {
		byRow[rowKey{c.Cycle, c.Scheme}] = c
	}
	t := &Table{
		Title:  "Scenario sweep — standard drive cycles × reconfiguration schemes",
		Header: []string{"cycle", "scheme", "duration_s", "energy_j", "overhead_j", "switch_events", "avg_runtime_ms", "capture_of_ideal"},
	}
	for _, cy := range m.Cycles {
		for _, sch := range m.Schemes {
			c := byRow[rowKey{cy.Label, sch}]
			t.Rows = append(t.Rows, []string{
				c.Cycle, c.Scheme, f1(c.DurationS), f1(c.EnergyOutJ), f2(c.OverheadJ),
				strconv.Itoa(c.SwitchEvents), f4(0), share(c.EnergyOutJ, c.IdealEnergyJ),
			})
		}
	}
	return t
}

// FromMatrix converts a scenario-matrix sweep to long format, one row
// per cell in stable (coordinate-sorted) order.
func FromMatrix(r *experiments.MatrixResult) *Table {
	title := "Scenario matrix"
	if r.Name != "" {
		title += " — " + r.Name
	}
	t := &Table{
		Title: title,
		Header: []string{"cycle", "scheme", "ambient_c", "coolant_offset_c", "paths",
			"maldistribution", "fault", "modules", "duration_s", "energy_j",
			"overhead_j", "switch_events", "capture_of_ideal"},
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			c.Cycle, c.Scheme, f1(c.AmbientC), f1(c.CoolantOffsetC),
			strconv.Itoa(c.Paths), f2(c.Maldistribution), c.Fault,
			strconv.Itoa(c.Modules), f1(c.DurationS), f1(c.EnergyOutJ),
			f2(c.OverheadJ), strconv.Itoa(c.SwitchEvents), share(c.EnergyOutJ, c.IdealEnergyJ),
		})
	}
	return t
}

// FromMatrixMarginals converts the per-axis roll-ups: one row per axis
// value, averaged over every cell carrying it. Collapsed axes (a
// single value) are omitted by Marginals itself.
func FromMatrixMarginals(r *experiments.MatrixResult) *Table {
	title := "Scenario matrix marginals"
	if r.Name != "" {
		title += " — " + r.Name
	}
	t := &Table{
		Title:  title,
		Header: []string{"axis", "value", "cells", "mean_energy_j", "mean_overhead_j", "mean_capture"},
	}
	for _, m := range r.Marginals() {
		t.Rows = append(t.Rows, []string{
			m.Axis, m.Value, strconv.Itoa(m.Cells),
			f1(m.MeanEnergyJ), f2(m.MeanOverheadJ), pct(m.MeanRatio),
		})
	}
	return t
}

// MatrixEnvelope is the versioned JSON form of a scenario matrix: the
// POST /v1/matrix response and `tegsim -matrix -format json`, so a spec
// run locally and the same spec submitted to tegserve produce the same
// bytes. It carries the cells' results alone (no request-time state),
// so a repeat submission encodes identically however its cells were
// obtained.
type MatrixEnvelope struct {
	Version   int                          `json:"version"`
	Name      string                       `json:"name,omitempty"`
	Counts    scenario.Counts              `json:"counts"`
	Cells     []experiments.MatrixCell     `json:"cells"`
	Marginals []experiments.MatrixMarginal `json:"marginals"`
}

// NewMatrixEnvelope wraps a completed matrix with its counts and
// marginals.
func NewMatrixEnvelope(r *experiments.MatrixResult, counts scenario.Counts) MatrixEnvelope {
	return MatrixEnvelope{
		Version:   ResultVersion,
		Name:      r.Name,
		Counts:    counts,
		Cells:     r.Cells,
		Marginals: r.Marginals(),
	}
}
