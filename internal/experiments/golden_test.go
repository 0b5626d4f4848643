package experiments

import (
	"context"
	"math"
	"testing"
)

// TestTableIGolden pins the default-seed Table I numbers. The run uses
// DeterministicRuntime, so every quantity below is a pure function of
// the seeded physics — if a future performance PR changes any of these,
// it changed the physics, not just the speed, and must update this table
// deliberately.
func TestTableIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden Table I runs the full 800 s drive")
	}
	s, err := DefaultSetup()
	if err != nil {
		t.Fatal(err)
	}
	s.Opts.DeterministicRuntime = true
	s.Workers = 0 // bit-identical to serial under DeterministicRuntime
	res, err := TableI(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}

	golden := map[string]struct {
		energyJ   float64
		overheadJ float64
		events    int
		toggles   int
	}{
		"DNOR":     {17633.0546, 28.33105938, 65, 3846},
		"INOR":     {16886.33873, 814.0270963, 1601, 35211},
		"EHTR":     {16896.64608, 808.8560955, 1601, 29814},
		"Baseline": {13326.08337, 0, 0, 0},
	}
	// 1e-6 relative: loose enough to survive legal cross-architecture
	// float differences (e.g. FMA contraction on arm64, which amd64
	// does not apply), tight enough that any real physics change trips
	// it. The integer switch counts are pinned exactly; if an
	// architecture's rounding flips a marginal switch decision, the
	// golden table needs re-pinning for that platform, not a physics
	// fix.
	approx := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
	}
	rows := map[string]TableIRow{}
	for _, r := range res.Rows {
		rows[r.Scheme] = r
		want, ok := golden[r.Scheme]
		if !ok {
			t.Errorf("unexpected scheme %q", r.Scheme)
			continue
		}
		if !approx(r.EnergyOutJ, want.energyJ) {
			t.Errorf("%s energy %.10g, golden %.10g", r.Scheme, r.EnergyOutJ, want.energyJ)
		}
		if !approx(r.OverheadJ, want.overheadJ) {
			t.Errorf("%s overhead %.10g, golden %.10g", r.Scheme, r.OverheadJ, want.overheadJ)
		}
		if r.SwitchEvents != want.events {
			t.Errorf("%s switch events %d, golden %d", r.Scheme, r.SwitchEvents, want.events)
		}
		if r.SwitchToggles != want.toggles {
			t.Errorf("%s switch toggles %d, golden %d", r.Scheme, r.SwitchToggles, want.toggles)
		}
	}
	if len(rows) != len(golden) {
		t.Fatalf("got %d schemes, want %d", len(rows), len(golden))
	}

	// The paper's energy ordering: DNOR ≥ INOR ≥ static baseline.
	if !(rows["DNOR"].EnergyOutJ >= rows["INOR"].EnergyOutJ && rows["INOR"].EnergyOutJ >= rows["Baseline"].EnergyOutJ) {
		t.Errorf("energy ordering violated: DNOR %.1f, INOR %.1f, Baseline %.1f",
			rows["DNOR"].EnergyOutJ, rows["INOR"].EnergyOutJ, rows["Baseline"].EnergyOutJ)
	}
	if !approx(res.GainVsBaseline, 0.3231985809) {
		t.Errorf("gain vs baseline %.10g, golden 0.3231985809", res.GainVsBaseline)
	}
	if !approx(res.OverheadReduction, 28.55015355) {
		t.Errorf("overhead reduction %.10g, golden 28.55015355", res.OverheadReduction)
	}
}

// TestTableIRuntimeOrdering checks the measured-runtime claims on
// short serial runs: EHTR remains the slowest scheme (the shared-table
// DP collapsed its premium from the paper's ~8×/13× — properties of
// the naive per-candidate DP — to a small constant, but the table
// build is work INOR never does), the static baseline is the cheapest,
// and DNOR's prediction-gated search undercuts INOR's every-tick
// optimisation. Each scheme's runtime is the fastest of seven runs, so
// a burst of load from other test packages landing on one scheme's
// runs does not decide the ordering: under a full parallel `go test
// ./...`, three runs were not enough for every scheme to get one
// undisturbed sample.
func TestTableIRuntimeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("measures wall-clock controller runtimes")
	}
	rt := map[string]float64{}
	for rep := 0; rep < 7; rep++ {
		s := shortSetup(t, 120)
		s.Workers = 1 // serial: measured runtimes must not fight for cores
		res, err := TableI(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			if v, ok := rt[r.Scheme]; !ok || float64(r.AvgRuntime) < v {
				rt[r.Scheme] = float64(r.AvgRuntime)
			}
		}
	}
	if rt["EHTR"] < 0.9*rt["INOR"] || rt["EHTR"] <= 1.5*rt["DNOR"] {
		t.Errorf("EHTR should stay the most expensive scheme: EHTR %.0f ns, INOR %.0f ns, DNOR %.0f ns",
			rt["EHTR"], rt["INOR"], rt["DNOR"])
	}
	if rt["Baseline"] >= rt["INOR"] {
		t.Errorf("static baseline (%.0f ns) should undercut INOR (%.0f ns)", rt["Baseline"], rt["INOR"])
	}
	if rt["DNOR"] >= rt["INOR"] {
		t.Errorf("DNOR (%.0f ns) should undercut INOR (%.0f ns) on average", rt["DNOR"], rt["INOR"])
	}
}
