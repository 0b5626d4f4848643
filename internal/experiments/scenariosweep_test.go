package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tegrecon/internal/drive"
)

// sweepSetup builds a deterministic-runtime setup so sweep results are
// bit-reproducible at any worker count.
func sweepSetup(t *testing.T, workers int) *Setup {
	t.Helper()
	s, err := DefaultSetup()
	if err != nil {
		t.Fatal(err)
	}
	s.Opts.Workers = workers
	s.Opts.DeterministicRuntime = true
	return s
}

// TestScenarioSweepMatrix runs the full registry (≥ 6 cycles × 4
// schemes) on truncated cycles and checks the matrix shape and content.
func TestScenarioSweepMatrix(t *testing.T) {
	s := sweepSetup(t, 0)
	res, err := ScenarioSweep(context.Background(), s, ScenarioOptions{MaxDuration: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) < 6 {
		t.Fatalf("sweep covered %d cycles, want ≥ 6", len(res.Cells))
	}
	wantSchemes := []string{"Baseline", "INOR", "DNOR", "EHTR"}
	if !reflect.DeepEqual(res.Schemes, wantSchemes) {
		t.Fatalf("schemes = %v, want %v", res.Schemes, wantSchemes)
	}
	seen := map[string]bool{}
	for _, row := range res.Cells {
		if len(row) != len(wantSchemes) {
			t.Fatalf("cycle %s has %d cells", row[0].Cycle, len(row))
		}
		seen[row[0].Cycle] = true
		for _, c := range row {
			if c.Cycle != row[0].Cycle {
				t.Fatalf("mixed cycle names in row: %s vs %s", c.Cycle, row[0].Cycle)
			}
			if c.EnergyOutJ <= 0 {
				t.Errorf("%s/%s: non-positive energy %g", c.Cycle, c.Scheme, c.EnergyOutJ)
			}
			if c.IdealEnergyJ < c.EnergyOutJ {
				t.Errorf("%s/%s: energy %g exceeds ideal %g", c.Cycle, c.Scheme, c.EnergyOutJ, c.IdealEnergyJ)
			}
			if c.DurationS <= 0 || c.DurationS > 30+s.Opts.TickSeconds {
				t.Errorf("%s/%s: duration %g beyond 30 s cap", c.Cycle, c.Scheme, c.DurationS)
			}
		}
	}
	for _, name := range []string{"nedc", "wltc", "ftp75", "hwfet", "us06", "delivery"} {
		if !seen[name] {
			t.Errorf("cycle %s missing from sweep", name)
		}
	}
}

// TestScenarioSweepDeterministicAcrossWorkers: the sweep must be
// bit-identical serial vs parallel, and across repeated runs with the
// same seed.
func TestScenarioSweepDeterministicAcrossWorkers(t *testing.T) {
	cycles, err := cyclesByName("hwfet", "us06", "delivery")
	if err != nil {
		t.Fatal(err)
	}
	opts := ScenarioOptions{Cycles: cycles, MaxDuration: 20}

	serial, err := ScenarioSweep(context.Background(), sweepSetup(t, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ScenarioSweep(context.Background(), sweepSetup(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ScenarioSweep(context.Background(), sweepSetup(t, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and 4-worker sweeps differ:\nserial:   %+v\nparallel: %+v", serial.Cells, parallel.Cells)
	}
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("repeated 4-worker sweeps differ")
	}
}

func cyclesByName(names ...string) ([]drive.Cycle, error) {
	out := make([]drive.Cycle, len(names))
	for i, n := range names {
		c, err := drive.CycleByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func TestScenarioSweepRejectsBadOptions(t *testing.T) {
	s := sweepSetup(t, 1)
	if _, err := ScenarioSweep(context.Background(), s, ScenarioOptions{Cycles: []drive.Cycle{}}); err == nil {
		t.Error("empty cycle list should error")
	}
	if _, err := ScenarioSweep(context.Background(), s, ScenarioOptions{MaxDuration: -1}); err == nil {
		t.Error("negative duration cap should error")
	}
}

func TestScenarioSweepRender(t *testing.T) {
	cycles, err := cyclesByName("delivery")
	if err != nil {
		t.Fatal(err)
	}
	s := sweepSetup(t, 0)
	res, err := ScenarioSweep(context.Background(), s, ScenarioOptions{Cycles: cycles, MaxDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	// A deterministic-runtime sweep omits the all-zero runtime matrix.
	for _, want := range []string{"Energy output (J)", "Switch events", "(runtime matrix omitted", "delivery", "DNOR gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}

	// A measured-runtime sweep renders it.
	s.Opts.DeterministicRuntime = false
	res, err = ScenarioSweep(context.Background(), s, ScenarioOptions{Cycles: cycles, MaxDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Render(); !strings.Contains(out, "Average runtime (ms)") {
		t.Errorf("Render missing runtime matrix in:\n%s", out)
	}
}
