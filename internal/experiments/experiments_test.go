package experiments

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
)

// truthOver is Fig. 5's input: the true module temperatures of the
// paper's 100-module system over the default drive cut to seconds.
func truthOver(t *testing.T, seconds float64) sim.TempSequence {
	t.Helper()
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = seconds
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim.TempSequence{Sys: sim.DefaultSystem(), Trace: tr, TickSeconds: sim.DefaultOptions().TickSeconds}
}

// tableIMatrix is the Table I study as `tegsim -study table1` builds it
// at its defaults — the 800 s synthetic trace (seed 42) at 100 modules —
// with the trace cut to seconds (0 keeps all 800 s); band, when
// non-nil, narrows the converter's input window.
func tableIMatrix(seconds float64, band *[2]float64, schemes ...string) *scenario.Matrix {
	if len(schemes) == 0 {
		schemes = TableISchemes
	}
	return &scenario.Matrix{
		Cycles:          []scenario.CycleSpec{{Synth: &scenario.SynthSpec{DurationS: seconds}}},
		Schemes:         schemes,
		ConverterInputV: band,
	}
}

// runTableI runs the Table I matrix cut to seconds and folds it.
func runTableI(t *testing.T, seconds float64) *TableIResult {
	t.Helper()
	m := tableIMatrix(seconds, nil)
	res, err := MatrixSweep(t.Context(), m, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := TableI(n, res.Cells)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestFig1ModuleCurves(t *testing.T) {
	series, err := Fig1ModuleCurves(teg.TGM199, 25, 51)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("%d series", len(series))
	}
	// Sorted by ΔT, each with its analytic MPP matching the curve peak.
	for i, s := range series {
		if i > 0 && s.DeltaT <= series[i-1].DeltaT {
			t.Fatal("series not sorted by ΔT")
		}
		peak := 0.0
		for _, p := range s.Points {
			if p.Power > peak {
				peak = p.Power
			}
		}
		if math.Abs(peak-s.MPP.Power) > 1e-9 {
			t.Errorf("ΔT=%v: curve peak %v != MPP %v", s.DeltaT, peak, s.MPP.Power)
		}
	}
}

func TestFig1BadSpec(t *testing.T) {
	bad := teg.TGM199
	bad.Couples = 0
	if _, err := Fig1ModuleCurves(bad, 25, 11); err == nil {
		t.Error("bad spec should error")
	}
}

func TestFig5PredictionError(t *testing.T) {
	res, err := Fig5PredictionError(truthOver(t, 120), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("%d predictors", len(res.Results))
	}
	names := map[string]bool{}
	var mlrMAPE float64
	worst := 0.0
	for _, r := range res.Results {
		names[r.Name] = true
		if r.MAPE <= 0 && r.Name != "Oracle" {
			t.Errorf("%s MAPE = %v", r.Name, r.MAPE)
		}
		if r.Name == "MLR" {
			mlrMAPE = r.MAPE
		}
		if r.MAPE > worst {
			worst = r.MAPE
		}
	}
	if !names["MLR"] || !names["BPNN"] || !names["SVR"] {
		t.Errorf("missing predictor in %v", names)
	}
	// The paper's finding: MLR is the most accurate of the three.
	if mlrMAPE != 0 && mlrMAPE > worst+1e-12 {
		t.Errorf("MLR MAPE %v is the worst", mlrMAPE)
	}
	// And the errors live at the sub-percent scale on radiator data.
	if mlrMAPE > 1.0 {
		t.Errorf("MLR MAPE %v%% implausibly large", mlrMAPE)
	}
}

// TestFig6And7PowerSeries: the figures cut their window out of the
// full Table I runs, so every run's totals are its matrix cell's.
func TestFig6And7PowerSeries(t *testing.T) {
	m := tableIMatrix(160, nil)
	res, err := Fig6PowerSeries(t.Context(), m, 20, 140)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := MatrixSweep(t.Context(), m, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(sweep.Cells) || len(res.Runs) != 4 {
		t.Fatalf("%d runs for %d cells", len(res.Runs), len(sweep.Cells))
	}
	for i, r := range res.Runs {
		c := sweep.Cells[i]
		if r.Scheme != c.Scheme || r.EnergyOutJ != c.EnergyOutJ || r.SwitchToggles != c.SwitchToggles || r.AvgRuntime != c.AvgRuntime {
			t.Errorf("run %d (%s: %v J, %d toggles) is not cell %s (%v J, %d toggles)",
				i, r.Scheme, r.EnergyOutJ, r.SwitchToggles, c.Scheme, c.EnergyOutJ, c.SwitchToggles)
		}
		// [20, 140) at the 0.5 s period.
		if len(r.Ticks) != 240 || r.Ticks[0].Time != 20 || r.Ticks[len(r.Ticks)-1].Time != 139.5 {
			t.Fatalf("%s: %d ticks from %v s to %v s, want 240 from 20 s to 139.5 s",
				r.Scheme, len(r.Ticks), r.Ticks[0].Time, r.Ticks[len(r.Ticks)-1].Time)
		}
	}
	// Fig. 7 reads each tick's ratio and switch marker.
	for _, r := range res.Runs {
		for _, tk := range r.Ticks {
			if tk.Ratio < 0 || tk.Ratio > 1+1e-9 {
				t.Fatalf("%s ratio %v out of range", r.Scheme, tk.Ratio)
			}
		}
	}
	// DNOR must carry visible switch markers but far fewer than ticks.
	var dnor []sim.Tick
	for _, r := range res.Runs {
		if r.Scheme == "DNOR" {
			dnor = r.Ticks
		}
	}
	switches := 0
	for _, tk := range dnor {
		if tk.Switched {
			switches++
		}
	}
	if switches == 0 || switches > len(dnor)/4 {
		t.Errorf("DNOR switch markers = %d of %d ticks", switches, len(dnor))
	}
}

func TestFig6BadWindow(t *testing.T) {
	m := tableIMatrix(60, nil)
	if _, err := Fig6PowerSeries(t.Context(), m, 50, 40); err == nil {
		t.Error("inverted window should error")
	}
	if _, err := Fig6PowerSeries(t.Context(), m, 5000, 6000); err == nil {
		t.Error("window outside trace should error")
	}
}

func TestTableIShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table I is slow")
	}
	res := runTableI(t, 120)
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	byName := map[string]TableIRow{}
	for _, r := range res.Rows {
		byName[r.Scheme] = r
	}
	// The paper's ordering: DNOR > INOR > EHTR > Baseline on energy.
	if !(byName["DNOR"].EnergyOutJ > byName["INOR"].EnergyOutJ*0.99) {
		t.Errorf("DNOR %v not ahead of INOR %v", byName["DNOR"].EnergyOutJ, byName["INOR"].EnergyOutJ)
	}
	if !(byName["INOR"].EnergyOutJ > byName["Baseline"].EnergyOutJ) {
		t.Errorf("INOR %v not ahead of baseline %v", byName["INOR"].EnergyOutJ, byName["Baseline"].EnergyOutJ)
	}
	if res.GainVsBaseline < 0.15 {
		t.Errorf("gain vs baseline %v below 15%%", res.GainVsBaseline)
	}
	if res.OverheadReduction < 5 {
		t.Errorf("overhead reduction only %v×", res.OverheadReduction)
	}
	// The shared-table DP collapsed EHTR's runtime premium from the
	// paper's ~8× (a property of the per-candidate quadratic DP) to a
	// small constant. EHTR still does strictly more work than INOR —
	// the table build on top of the same candidate pricing — so the
	// ratio must not drop materially below parity.
	if res.SpeedupINOR < 0.9 {
		t.Errorf("INOR speedup %v× — EHTR undercuts INOR", res.SpeedupINOR)
	}
	// Render must mention every scheme.
	text := res.Render()
	for _, name := range []string{"DNOR", "INOR", "EHTR", "Baseline", "Energy Output"} {
		if !strings.Contains(text, name) {
			t.Errorf("render missing %q", name)
		}
	}
}

// TestWindowAblation runs the Ext-C study's matrices: INOR alone under
// the full converter band and a narrow one, paired on one noise draw.
func TestWindowAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	energy := func(band *[2]float64) float64 {
		t.Helper()
		res, err := MatrixSweep(t.Context(), tableIMatrix(80, band, "INOR"), MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cells[0].EnergyOutJ
	}
	full, narrow := energy(nil), energy(&[2]float64{12, 16})
	// The full window can only help.
	if full < narrow*0.98 {
		t.Errorf("full window %v below narrow window %v", full, narrow)
	}
	if _, err := MatrixSweep(t.Context(), tableIMatrix(80, &[2]float64{10, 5}, "INOR"), MatrixOptions{}); !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("inverted window: %v, want a refused spec", err)
	}
}

// TestTableIRefusesOtherGrids: Table I folds exactly one cell per
// scheme, so a grid with a second axis point, or one missing a
// column, is refused rather than folded into the wrong rows.
func TestTableIRefusesOtherGrids(t *testing.T) {
	m, err := tableIMatrix(0, nil).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]MatrixCell, len(m.Schemes))
	for i, name := range m.Schemes {
		cells[i].Scheme = name
	}
	if _, err := TableI(m, cells); err != nil {
		t.Fatalf("one cell per scheme refused: %v", err)
	}
	if _, err := TableI(m, append(cells, cells[0])); err == nil {
		t.Error("a fifth cell folded silently")
	}
	short := *m
	short.Schemes = []string{"DNOR", "INOR", "EHTR"}
	if _, err := TableI(&short, cells[:3]); err == nil {
		t.Error("Table I without a baseline column folded")
	}
}

// TestTempSequence: Fig. 5 reads one row per control period, each the
// whole array, and row k is the sequence's own Temps(k).
func TestTempSequence(t *testing.T) {
	truth := truthOver(t, 40)
	seq, err := truth.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 81 { // 40 s / 0.5 s + 1
		t.Errorf("sequence length %d", len(seq))
	}
	for i, row := range seq {
		if len(row) != truth.Sys.Modules {
			t.Fatalf("tick %d has %d modules", i, len(row))
		}
	}
	last, err := truth.Temps(80)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seq[80], last) {
		t.Errorf("row 80 %v differs from Temps(80) %v", seq[80][:3], last[:3])
	}
}

// TestSchemeBuilderGuards pins the loud-failure contract of the
// scheme axis: an unknown scheme and a horizon-0 DNOR variant are
// refused specs, not silently simulated under the wrong label.
// (tegsim refuses an explicit -horizon 0 itself.)
func TestSchemeBuilderGuards(t *testing.T) {
	for _, scheme := range []string{"nope", "DNOR:horizon=0"} {
		m := scenario.Matrix{Cycles: []scenario.CycleSpec{{Name: "nedc"}}, Schemes: []string{scheme}}
		if _, err := MatrixSweep(context.Background(), &m, MatrixOptions{}); !errors.Is(err, scenario.ErrSpec) {
			t.Errorf("%s: %v, want a refused spec", scheme, err)
		}
	}
}
