package experiments

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/teg"
)

// shortSetup trims the trace so the heavier experiments stay test-sized.
func shortSetup(t *testing.T, seconds float64) *Setup {
	t.Helper()
	s, err := DefaultSetup()
	if err != nil {
		t.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = seconds
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Trace = tr
	return s
}

func TestDefaultSetup(t *testing.T) {
	s, err := DefaultSetup()
	if err != nil {
		t.Fatal(err)
	}
	if s.Sys.Modules != 100 || s.HorizonTicks != 4 {
		t.Errorf("setup = %+v", s)
	}
	if math.Abs(s.Trace.Duration()-800) > 1 {
		t.Errorf("trace duration %v", s.Trace.Duration())
	}
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
	s := shortSetup(t, 120)
	res, err := Fig5PredictionError(s, 2)
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

func TestFig6And7PowerSeries(t *testing.T) {
	s := shortSetup(t, 160)
	res, err := Fig6PowerSeries(s, 20, 140)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	for _, r := range res.Runs {
		if len(r.Ticks) == 0 {
			t.Fatalf("%s produced no ticks", r.Scheme)
		}
	}
	ratios := res.RatioSeries()
	if len(ratios) != 4 {
		t.Fatalf("%d ratio series", len(ratios))
	}
	for scheme, pts := range ratios {
		for _, p := range pts {
			if p.Ratio < 0 || p.Ratio > 1+1e-9 {
				t.Fatalf("%s ratio %v out of range", scheme, p.Ratio)
			}
		}
	}
	// DNOR must carry visible switch markers but far fewer than ticks.
	dnor := ratios["DNOR"]
	switches := 0
	for _, p := range dnor {
		if p.Switched {
			switches++
		}
	}
	if switches == 0 || switches > len(dnor)/4 {
		t.Errorf("DNOR switch markers = %d of %d ticks", switches, len(dnor))
	}
}

func TestFig6BadWindow(t *testing.T) {
	s := shortSetup(t, 60)
	if _, err := Fig6PowerSeries(s, 50, 40); err == nil {
		t.Error("inverted window should error")
	}
	if _, err := Fig6PowerSeries(s, 5000, 6000); err == nil {
		t.Error("window outside trace should error")
	}
}

func TestTableIShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table I is slow")
	}
	s := shortSetup(t, 120)
	res, err := TableI(s)
	if err != nil {
		t.Fatal(err)
	}
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

func TestScalingStudy(t *testing.T) {
	pts, err := ScalingStudy([]int{25, 50, 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// With the shared-table DP, EHTR's table costs O(N·(N+nmax))
	// (Knuth-bounded rows) on top of the candidate pricing it shares
	// with INOR's O(nmax·N) greedy — near-parity at small N instead of
	// the naive DP's cubic blow-up. Both runtimes must still grow with N,
	// and the study must record positive measurements throughout.
	if pts[2].EHTRRuntime <= pts[0].EHTRRuntime {
		t.Errorf("EHTR runtime not growing with N: %v → %v", pts[0].EHTRRuntime, pts[2].EHTRRuntime)
	}
	if pts[2].INORRuntime <= pts[0].INORRuntime {
		t.Errorf("INOR runtime not growing with N: %v → %v", pts[0].INORRuntime, pts[2].INORRuntime)
	}
	for _, p := range pts {
		if p.EHTRRuntime <= 0 || p.INORRuntime <= 0 || p.Speedup <= 0 {
			t.Errorf("N=%d: non-positive measurement: EHTR %v, INOR %v, speedup %v",
				p.N, p.EHTRRuntime, p.INORRuntime, p.Speedup)
		}
	}
}

func TestScalingStudyErrors(t *testing.T) {
	if _, err := ScalingStudy([]int{100}, 0); err == nil {
		t.Error("zero reps should error")
	}
	if _, err := ScalingStudy([]int{5}, 1); err == nil {
		t.Error("tiny N should error")
	}
}

func TestHorizonAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	s := shortSetup(t, 100)
	pts, err := HorizonAblation(s, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.EnergyOutJ <= 0 {
			t.Errorf("tp=%d harvested nothing", p.HorizonTicks)
		}
	}
	// Switch events are bounded by the decision count ticks/(tp+1),
	// and both horizons must stay far below INOR's every-tick rate.
	ticks := int(s.Trace.Duration()/s.Opts.TickSeconds) + 1
	for i, tp := range []int{1, 4} {
		maxDecisions := ticks/(tp+1) + 1
		if pts[i].SwitchEvents > maxDecisions {
			t.Errorf("tp=%d: %d switches exceed %d decisions", tp, pts[i].SwitchEvents, maxDecisions)
		}
		if pts[i].SwitchEvents > ticks/4 {
			t.Errorf("tp=%d: %d switches of %d ticks — not durable", tp, pts[i].SwitchEvents, ticks)
		}
	}
}

func TestPredictorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	s := shortSetup(t, 100)
	pts, err := PredictorAblation(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d predictors", len(pts))
	}
	byName := map[string]PredictorPoint{}
	for _, p := range pts {
		byName[p.Predictor] = p
		if p.EnergyOutJ <= 0 {
			t.Errorf("%s harvested nothing", p.Predictor)
		}
	}
	for _, want := range []string{"MLR", "BPNN", "SVR", "Holt", "Hold", "Oracle"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing predictor %s", want)
		}
	}
	// The oracle can lose at most a whisker to MLR.
	if byName["Oracle"].EnergyOutJ < byName["MLR"].EnergyOutJ*0.97 {
		t.Errorf("oracle %v well below MLR %v", byName["Oracle"].EnergyOutJ, byName["MLR"].EnergyOutJ)
	}
}

func TestWindowAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	s := shortSetup(t, 80)
	pts, err := WindowAblation(s, [][2]float64{{4.5, 36}, {12, 16}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// The full window can only help.
	if pts[0].EnergyOutJ < pts[1].EnergyOutJ*0.98 {
		t.Errorf("full window %v below narrow window %v", pts[0].EnergyOutJ, pts[1].EnergyOutJ)
	}
	if _, err := WindowAblation(s, [][2]float64{{10, 5}}); err == nil {
		t.Error("inverted window should error")
	}
}

func TestTempSequence(t *testing.T) {
	s := shortSetup(t, 40)
	seq, ambient, err := s.TempSequence()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 81 { // 40 s / 0.5 s + 1
		t.Errorf("sequence length %d", len(seq))
	}
	if ambient != 25 {
		t.Errorf("ambient %v", ambient)
	}
	for i, row := range seq {
		if len(row) != s.Sys.Modules {
			t.Fatalf("tick %d has %d modules", i, len(row))
		}
	}
}

func TestFaultStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("fault study is slow")
	}
	s := shortSetup(t, 100)
	pts, err := FaultStudy(s, 15, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d schemes", len(pts))
	}
	byName := map[string]FaultPoint{}
	for _, p := range pts {
		byName[p.Scheme] = p
		if p.FaultyEnergyJ <= 0 || p.FaultyEnergyJ >= p.HealthyEnergyJ {
			t.Errorf("%s: faulty %v vs healthy %v", p.Scheme, p.FaultyEnergyJ, p.HealthyEnergyJ)
		}
		if p.RetainedFraction <= 0 || p.RetainedFraction >= 1 {
			t.Errorf("%s: retained fraction %v", p.Scheme, p.RetainedFraction)
		}
	}
	// Reconfiguration captures more of the surviving ideal power than
	// the static baseline.
	if byName["INOR"].FaultyCaptureFrac <= byName["Baseline"].FaultyCaptureFrac {
		t.Errorf("INOR capture %v not above baseline %v",
			byName["INOR"].FaultyCaptureFrac, byName["Baseline"].FaultyCaptureFrac)
	}
}

func TestFaultStudyValidation(t *testing.T) {
	s := shortSetup(t, 40)
	if _, err := FaultStudy(s, 0, 1); err == nil {
		t.Error("zero failures should error")
	}
}

func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	s := shortSetup(t, 60)
	res, err := SeedSweep(s, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds != 4 {
		t.Errorf("seeds = %d", res.Seeds)
	}
	// The baseline gain must be robustly positive across traces.
	if res.GainMin <= 0.05 {
		t.Errorf("minimum gain %v not robustly positive", res.GainMin)
	}
	if res.GainMean <= res.GainMin-1e-12 {
		t.Errorf("mean %v below min %v", res.GainMean, res.GainMin)
	}
	// DNOR must slash overhead on every trace.
	if res.OverheadRatioMin < 3 {
		t.Errorf("worst-case overhead ratio %v too small", res.OverheadRatioMin)
	}
	if res.DNORBeatsINOR < res.Seeds-1 {
		t.Errorf("DNOR beat INOR on only %d of %d seeds", res.DNORBeatsINOR, res.Seeds)
	}
}

func TestSeedSweepParallelBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	// The sweep prices overhead with deterministic runtime, so any worker
	// count must reproduce the serial result exactly — not approximately.
	s := shortSetup(t, 40)
	s.Opts.Workers = 1
	serial, err := SeedSweep(s, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Force the concurrent path even on a single-CPU box.
	s.Opts.Workers = max(4, runtime.NumCPU())
	parallel, err := SeedSweep(s, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel sweep differs from serial:\n%+v\n%+v", parallel, serial)
	}
}

func TestSeedSweepValidation(t *testing.T) {
	s := shortSetup(t, 40)
	if _, err := SeedSweep(s, 1, 60); err == nil {
		t.Error("one seed should error")
	}
	if _, err := SeedSweep(s, 3, 0); err == nil {
		t.Error("zero duration should error")
	}
}

func TestBankStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("bank study is slow")
	}
	s := shortSetup(t, 60)
	pts, err := BankStudy(s, 3, []float64{0, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.INOREnergyJ <= p.BaselineEnergyJ {
			t.Errorf("m=%v: INOR %v not above baseline %v", p.Maldistribution, p.INOREnergyJ, p.BaselineEnergyJ)
		}
		if p.Gain <= 0.1 {
			t.Errorf("m=%v: gain %v not robustly positive", p.Maldistribution, p.Gain)
		}
	}
	// The maldistribution must actually change the harvest.
	if pts[0].INOREnergyJ == pts[1].INOREnergyJ {
		t.Error("maldistribution had no effect")
	}
}

func TestBankStudyValidation(t *testing.T) {
	s := shortSetup(t, 40)
	if _, err := BankStudy(s, 1, []float64{0}); err == nil {
		t.Error("one path should error")
	}
	if _, err := BankStudy(s, 3, []float64{2}); err == nil {
		t.Error("maldistribution ≥1 should error")
	}
}

func TestMarginAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	s := shortSetup(t, 120)
	pts, err := MarginAblation(s, []float64{0, 0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Switch count must be non-increasing in the margin.
	for i := 1; i < len(pts); i++ {
		if pts[i].SwitchEvents > pts[i-1].SwitchEvents {
			t.Errorf("margin %v switched more (%d) than margin %v (%d)",
				pts[i].MarginJ, pts[i].SwitchEvents, pts[i-1].MarginJ, pts[i-1].SwitchEvents)
		}
	}
	// A moderate margin must not destroy the harvest.
	if pts[2].EnergyOutJ < pts[0].EnergyOutJ*0.9 {
		t.Errorf("margin 2 J lost too much energy: %v vs %v", pts[2].EnergyOutJ, pts[0].EnergyOutJ)
	}
}

// TestSchemeBuilderGuards pins the loud-failure contract of the
// registry-backed builders: a Setup's horizon is always explicit, so a
// non-positive one (e.g. an ablation sweeping over 0) must error, not
// silently simulate the default horizon under the wrong label — and
// NewDNORWith must never fall back to the default predictor.
func TestSchemeBuilderGuards(t *testing.T) {
	s, err := DefaultSetup()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewScheme("nope"); err == nil {
		t.Error("unknown scheme built")
	}
	if c, err := s.NewScheme("dnor"); err != nil || c.Name() != "DNOR" {
		t.Errorf("NewScheme(dnor): %v %v", c, err)
	}
	s.HorizonTicks = 0
	if _, err := s.NewDNOR(); err == nil {
		t.Error("horizon 0 DNOR built silently")
	}
	if _, err := HorizonAblation(s, []int{0}); err == nil {
		t.Error("horizon-0 ablation point ran silently")
	}
	// INOR ignores the horizon, so it still builds.
	if _, err := s.NewINOR(); err != nil {
		t.Errorf("INOR with horizon 0: %v", err)
	}
	s.HorizonTicks = 4
	if _, err := s.NewDNORWith(nil); err == nil {
		t.Error("NewDNORWith(nil) built a controller")
	}
}
