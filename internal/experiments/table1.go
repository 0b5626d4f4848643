package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tegrecon/internal/sim"
)

// TableIRow is one column of the paper's Table I (transposed to a row
// here): the 800 s totals of one scheme.
type TableIRow struct {
	Scheme        string
	EnergyOutJ    float64
	OverheadJ     float64
	AvgRuntime    time.Duration
	SwitchEvents  int
	SwitchToggles int
	IdealEnergyJ  float64
}

// TableIResult carries all four schemes plus the headline ratios the
// paper quotes in Sections I and VI.
type TableIResult struct {
	Rows []TableIRow
	// GainVsBaseline is DNOR energy / baseline energy − 1 (paper: ~30%).
	GainVsBaseline float64
	// OverheadReduction is EHTR overhead / DNOR overhead (paper: ~100×).
	OverheadReduction float64
	// SpeedupINOR is EHTR runtime / INOR runtime (paper: ~8×).
	SpeedupINOR float64
	// SpeedupDNOR is EHTR runtime / DNOR runtime (paper: ~13×).
	SpeedupDNOR float64
}

// TableI runs the four schemes of Table I over the setup's trace.
// The context reaches every run's per-tick check, so a cancel aborts
// the whole study within one control period.
func TableI(ctx context.Context, s *Setup) (*TableIResult, error) {
	results, err := s.compareSchemes(ctx, s.Trace, s.summaryOpts(), "DNOR", "INOR", "EHTR", "Baseline")
	if err != nil {
		return nil, err
	}
	out := &TableIResult{}
	byName := map[string]*sim.Result{}
	for _, r := range results {
		out.Rows = append(out.Rows, TableIRow{
			Scheme:        r.Scheme,
			EnergyOutJ:    r.EnergyOutJ,
			OverheadJ:     r.OverheadJ,
			AvgRuntime:    r.AvgRuntime,
			SwitchEvents:  r.SwitchEvents,
			SwitchToggles: r.SwitchToggles,
			IdealEnergyJ:  r.IdealEnergyJ,
		})
		byName[r.Scheme] = r
	}
	d, i, e, b := byName["DNOR"], byName["INOR"], byName["EHTR"], byName["Baseline"]
	if d == nil || i == nil || e == nil || b == nil {
		return nil, fmt.Errorf("experiments: missing scheme in Table I results")
	}
	if b.EnergyOutJ > 0 {
		out.GainVsBaseline = d.EnergyOutJ/b.EnergyOutJ - 1
	}
	if d.OverheadJ > 0 {
		out.OverheadReduction = e.OverheadJ / d.OverheadJ
	}
	if i.AvgRuntime > 0 {
		out.SpeedupINOR = float64(e.AvgRuntime) / float64(i.AvgRuntime)
	}
	if d.AvgRuntime > 0 {
		out.SpeedupDNOR = float64(e.AvgRuntime) / float64(d.AvgRuntime)
	}
	return out, nil
}

// Render formats the result like the paper's Table I, with the headline
// ratios appended.
func (t *TableIResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s", "")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%12s", r.Scheme)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-22s", "Energy Output (J)")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%12.1f", r.EnergyOutJ)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-22s", "Switch Overhead (J)")
	for _, r := range t.Rows {
		if r.SwitchEvents == 0 {
			fmt.Fprintf(&sb, "%12s", "/")
		} else {
			fmt.Fprintf(&sb, "%12.1f", r.OverheadJ)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-22s", "Average Runtime (ms)")
	for _, r := range t.Rows {
		if r.Scheme == "Baseline" {
			fmt.Fprintf(&sb, "%12s", "/")
		} else {
			fmt.Fprintf(&sb, "%12.4f", float64(r.AvgRuntime)/1e6)
		}
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%-22s", "Switch Events")
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%12d", r.SwitchEvents)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "\nDNOR vs baseline energy gain : %+.1f%%  (paper: +30%%)\n", 100*t.GainVsBaseline)
	fmt.Fprintf(&sb, "EHTR/DNOR overhead ratio     : %.0f×    (paper: ~100×)\n", t.OverheadReduction)
	fmt.Fprintf(&sb, "EHTR/INOR runtime speedup    : %.1f×   (paper: ~8×)\n", t.SpeedupINOR)
	fmt.Fprintf(&sb, "EHTR/DNOR runtime speedup    : %.1f×   (paper: ~13×)\n", t.SpeedupDNOR)
	return sb.String()
}
