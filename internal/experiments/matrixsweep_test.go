package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
)

// goldenMatrix is deliberately heterogeneous — two array sizes, a
// multi-path maldistributed flow, a fault storm — because those are
// exactly the axes that could break batch-order independence.
func goldenMatrix() *scenario.Matrix {
	return &scenario.Matrix{
		Name:         "golden",
		MaxDurationS: 10,
		Seed:         11,
		Cycles:       []scenario.CycleSpec{{Synth: &scenario.SynthSpec{Profile: "urban", Seed: 5, DurationS: 10}}},
		Schemes:      []string{"Baseline", "DNOR"},
		Ambients:     []scenario.AmbientSpec{{AmbientC: 20}},
		Flows:        []scenario.FlowSpec{{Paths: 2, Maldistribution: 0.3}},
		Faults:       []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: 2}}},
		ArraySizes:   []int{20, 30},
	}
}

// TestMatrixSweepBitIdentity is the subsystem's core promise: the same
// spec produces byte-for-byte identical per-cell results no matter how
// the jobs are scheduled. The serial run is the golden reference;
// parallel (an explicit pool, so workers run concurrently even on one
// CPU) and default-pool runs must match it exactly — not approximately.
func TestMatrixSweepBitIdentity(t *testing.T) {
	m := goldenMatrix()
	golden, err := MatrixSweep(context.Background(), m, MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(golden.Cells) != 8 {
		t.Fatalf("golden matrix expanded to %d cells, want 8", len(golden.Cells))
	}
	for i, c := range golden.Cells {
		if c.EnergyOutJ <= 0 || c.IdealEnergyJ <= 0 {
			t.Fatalf("cell %d produced no energy: %+v", i, c)
		}
		if c.Jobs != 2 {
			t.Fatalf("cell %d folded %d jobs, want 2 (one per flow path)", i, c.Jobs)
		}
	}

	runs := []struct {
		name string
		opts MatrixOptions
	}{
		{"parallel", MatrixOptions{Workers: 4}},
		{"auto", MatrixOptions{Workers: 0}},
		{"serial repeat", MatrixOptions{Workers: 1}},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			res, err := MatrixSweep(context.Background(), goldenMatrix(), run.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Cells) != len(golden.Cells) {
				t.Fatalf("%d cells vs golden %d", len(res.Cells), len(golden.Cells))
			}
			for i := range res.Cells {
				if !reflect.DeepEqual(res.Cells[i], golden.Cells[i]) {
					t.Fatalf("cell %d differs from golden:\n%+v\n%+v",
						i, res.Cells[i], golden.Cells[i])
				}
			}
		})
	}
}

func TestMatrixMarginals(t *testing.T) {
	res, err := MatrixSweep(context.Background(), goldenMatrix(), MatrixOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	mg := res.Marginals()
	if len(mg) == 0 {
		t.Fatal("no marginals for a multi-axis matrix")
	}
	axes := map[string][]MatrixMarginal{}
	for _, m := range mg {
		axes[m.Axis] = append(axes[m.Axis], m)
	}
	// Single-valued axes (cycle, ambient, flow) carry no contrast and
	// must be skipped; the varied axes must each appear with two levels.
	for _, skipped := range []string{"cycle", "ambient", "flow"} {
		if len(axes[skipped]) != 0 {
			t.Fatalf("axis %q has one level but produced marginals", skipped)
		}
	}
	for _, axis := range []string{"scheme", "fault", "modules"} {
		rows := axes[axis]
		if len(rows) != 2 {
			t.Fatalf("axis %q: %d marginal rows, want 2", axis, len(rows))
		}
		cells := 0
		for _, r := range rows {
			cells += r.Cells
			if r.MeanEnergyJ <= 0 || r.MeanRatio <= 0 || r.MeanRatio > 1 {
				t.Fatalf("axis %q level %q has implausible means: %+v", axis, r.Value, r)
			}
		}
		if cells != len(res.Cells) {
			t.Fatalf("axis %q marginals cover %d cells, want %d", axis, cells, len(res.Cells))
		}
	}

	mg2 := (&MatrixResult{Name: res.Name, Cells: res.Cells}).Marginals()
	if !reflect.DeepEqual(mg, mg2) {
		t.Fatal("Marginals is not deterministic")
	}
}

// TestRunExpansionSubset mirrors serve's cache path: running only the
// missing cells of an expansion must give those cells the same numbers
// as the full sweep.
func TestRunExpansionSubset(t *testing.T) {
	m := goldenMatrix()
	full, err := MatrixSweep(context.Background(), m, MatrixOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	pick := []int{6, 1, 4}
	sub, err := ex.Subset(pick)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunExpansion(t.Context(), sub, MatrixOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(pick) {
		t.Fatalf("subset sweep has %d cells, want %d", len(res.Cells), len(pick))
	}
	for i, ci := range pick {
		if !reflect.DeepEqual(res.Cells[i], full.Cells[ci]) {
			t.Fatalf("subset cell %d (matrix cell %d) differs from full sweep:\n%+v\n%+v",
				i, ci, res.Cells[i], full.Cells[ci])
		}
	}
}

// TestRunCells: the per-tick runs total to the folded cells bit for
// bit, and a multi-path cell, which has no single tick series, is
// refused.
func TestRunCells(t *testing.T) {
	m := &scenario.Matrix{MaxDurationS: 20, Cycles: []scenario.CycleSpec{{Name: "nedc"}}, Schemes: []string{"INOR", "DNOR"}, ArraySizes: []int{20}}
	folded, err := MatrixSweep(t.Context(), m, MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	runs, err := RunCells(t.Context(), ex, MatrixOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		c := folded.Cells[i]
		if r.Scheme != c.Scheme || r.EnergyOutJ != c.EnergyOutJ || r.OverheadJ != c.OverheadJ || r.AvgRuntime != c.AvgRuntime || len(r.Ticks) != 41 {
			t.Errorf("run %d: %s %v J, %v J overhead, %v, %d ticks; cell %s %v J, %v J, %v",
				i, r.Scheme, r.EnergyOutJ, r.OverheadJ, r.AvgRuntime, len(r.Ticks), c.Scheme, c.EnergyOutJ, c.OverheadJ, c.AvgRuntime)
		}
	}
	m.Flows = []scenario.FlowSpec{{Paths: 2}}
	if ex, err = m.Expand(); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCells(t.Context(), ex, MatrixOptions{}); err == nil {
		t.Error("a two-path cell ran as one tick series")
	}
}

// TestScenarioSweepMatrix runs the full cycle × scheme grid
// (scenario.CycleSweep: every registered cycle, ≥ 6, under the four
// schemes) on cycles truncated to 30 s through MatrixSweep and checks
// the swept cells' shape and content.
func TestScenarioSweepMatrix(t *testing.T) {
	m := scenario.CycleSweep(nil, nil, 30)
	res, err := MatrixSweep(context.Background(), &m, MatrixOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantSchemes := []string{"Baseline", "INOR", "DNOR", "EHTR"}
	schemes := map[string]map[string]bool{}
	for _, c := range res.Cells {
		if schemes[c.Cycle] == nil {
			schemes[c.Cycle] = map[string]bool{}
		}
		if schemes[c.Cycle][c.Scheme] {
			t.Fatalf("%s/%s swept twice", c.Cycle, c.Scheme)
		}
		schemes[c.Cycle][c.Scheme] = true
		if c.EnergyOutJ <= 0 {
			t.Errorf("%s/%s: non-positive energy %g", c.Cycle, c.Scheme, c.EnergyOutJ)
		}
		if c.IdealEnergyJ < c.EnergyOutJ {
			t.Errorf("%s/%s: energy %g exceeds ideal %g", c.Cycle, c.Scheme, c.EnergyOutJ, c.IdealEnergyJ)
		}
		if c.DurationS <= 0 || c.DurationS > 30 {
			t.Errorf("%s/%s: duration %g beyond 30 s cap", c.Cycle, c.Scheme, c.DurationS)
		}
	}
	if len(schemes) < 6 {
		t.Fatalf("sweep covered %d cycles, want ≥ 6", len(schemes))
	}
	if want := len(schemes) * len(wantSchemes); len(res.Cells) != want {
		t.Fatalf("%d cells, want %d", len(res.Cells), want)
	}
	for _, name := range []string{"nedc", "wltc", "ftp75", "hwfet", "us06", "delivery"} {
		for _, s := range wantSchemes {
			if !schemes[name][s] {
				t.Errorf("cell %s/%s missing from sweep", name, s)
			}
		}
	}
}

// TestScenarioSweepRejectsBadOptions: a cycle × scheme sweep with a
// negative duration cap, an unknown cycle or an unknown scheme fails
// as a spec error before any run starts.
func TestScenarioSweepRejectsBadOptions(t *testing.T) {
	for name, bad := range map[string]scenario.Matrix{
		"negative cap":   scenario.CycleSweep([]string{"nedc"}, nil, -1),
		"unknown cycle":  scenario.CycleSweep([]string{"nope"}, nil, 0),
		"unknown scheme": scenario.CycleSweep([]string{"nedc"}, []string{"nope"}, 0),
	} {
		_, err := MatrixSweep(context.Background(), &bad, MatrixOptions{
			OnTick: func(sim.Tick) { t.Errorf("%s: a run started", name) },
		})
		if !errors.Is(err, scenario.ErrSpec) {
			t.Errorf("%s: err = %v, want ErrSpec", name, err)
		}
	}
}

// faultStudyMatrix is the shape of the Ext-E fault study: DNOR, INOR
// and Baseline, healthy and under a storm of count failures.
func faultStudyMatrix(count int) *scenario.Matrix {
	return &scenario.Matrix{
		MaxDurationS: 10,
		Cycles:       []scenario.CycleSpec{{Synth: &scenario.SynthSpec{Seed: 5, DurationS: 10}}},
		Schemes:      []string{"DNOR", "INOR", "Baseline"},
		Faults:       []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: count}}},
		ArraySizes:   []int{20},
	}
}

// TestFaultStudyValidation: the fault study refuses a storm of no
// failures, or of more failures than the array has modules, before any
// run starts.
func TestFaultStudyValidation(t *testing.T) {
	if _, err := faultStudyMatrix(20).Expand(); err != nil {
		t.Fatalf("a storm of every module: %v", err)
	}
	for _, count := range []int{0, -1, 21} {
		_, err := MatrixSweep(context.Background(), faultStudyMatrix(count), MatrixOptions{
			OnTick: func(sim.Tick) { t.Errorf("storm count %d: a run started", count) },
		})
		if !errors.Is(err, scenario.ErrSpec) {
			t.Errorf("storm count %d: err = %v, want ErrSpec", count, err)
		}
	}
}

// seedStudyMatrix is the shape of the Ext-F seed sweep: one synth
// trace per seed, reseeded 101·k, each durationS long.
func seedStudyMatrix(seeds int, durationS float64) *scenario.Matrix {
	m := &scenario.Matrix{
		Schemes:    []string{"DNOR", "INOR", "Baseline"},
		ArraySizes: []int{20},
	}
	for k := 1; k <= seeds; k++ {
		m.Cycles = append(m.Cycles, scenario.CycleSpec{Synth: &scenario.SynthSpec{Seed: 101 * int64(k), DurationS: durationS}})
	}
	return m
}

// TestSeedSweepValidation: the seed sweep refuses more traces than the
// cycle axis holds and a trace of negative duration before any run
// starts. (A single-trace sweep is refused by tegsim's -seeds check,
// since one trace is a legal matrix.)
func TestSeedSweepValidation(t *testing.T) {
	if _, err := seedStudyMatrix(64, 10).Expand(); err != nil {
		t.Fatalf("64 seeds: %v", err)
	}
	for name, bad := range map[string]*scenario.Matrix{
		"65 seeds":          seedStudyMatrix(65, 10),
		"negative duration": seedStudyMatrix(3, -60),
	} {
		_, err := MatrixSweep(context.Background(), bad, MatrixOptions{
			OnTick: func(sim.Tick) { t.Errorf("%s: a run started", name) },
		})
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := MatrixSweep(context.Background(), seedStudyMatrix(65, 10), MatrixOptions{}); !errors.Is(err, scenario.ErrSpec) {
		t.Errorf("65 seeds: err = %v, want ErrSpec", err)
	}
}
