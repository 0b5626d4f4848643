package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
	"tegrecon/internal/serve"
)

// TestRefusesIgnoredFlags runs tegsim in a child process for each flag
// combination whose flag the selected mode would ignore: the child must
// exit 1 and name the refused flag on stderr, which the Warn-level slog
// default must not swallow.
func TestRefusesIgnoredFlags(t *testing.T) {
	if args := os.Getenv("TEGSIM_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"tegsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, want string }{
		{"-study scenarios -seed 3", "cannot be combined with -seed"},
		{"-scenarios -duration 30", "cannot be combined with -duration"},
		{"-scenarios -synth profile=urban", "cannot be combined with -synth"},
		{"-study seeds -scenario-duration 30", "-scenario-duration only applies to -study scenarios"},
		{"-scheme dnor -scenario-duration 30", "-scenario-duration only applies to -study scenarios"},
		{"-matrix spec.json -scenario-duration 30", "cannot be combined with -scenario-duration"},
		{"-scheme dnor -study seeds", "cannot be combined with -study"},
		{"-failures 3", "-failures only applies to -study faults"},
		{"-study seeds -failures 3", "-failures only applies to -study faults"},
		{"-study faults -seeds 3", "-seeds only applies to -study seeds"},
		{"-study seeds -seed 3", "cannot be combined with -seed"},
		{"-study seeds -seeds 1", "-seeds 1: the seed sweep needs at least 2 traces"},
		{"-study seeds -seeds 65", "-seeds 65: scenario: invalid matrix spec: 65 cycles exceed the 64-entry axis cap"},
		{"-study faults -failures 0", "-failures 0: scenario: invalid matrix spec: fault 1 storm must set exactly one of count, fraction"},
		{"-study faults -modules 20 -failures 21", "storm count 21 outside [1, 20]"},
		{"-study bank -seed 0", "trace seed 0 cannot be expressed"},
		{"-study table1 -seed 0", "-study table1: trace seed 0 cannot be expressed"},
		{"-study window -seed 0", "-study window: trace seed 0 cannot be expressed"},
		{"-study table1 -duration 0", "non-positive duration 0"},
		{"-scheme dnor -seed 0", "-scheme dnor: trace seed 0 cannot be expressed"},
		{"-scheme dnor -horizon 0", "-horizon 0: DNOR needs a prediction horizon of at least 1 tick"},
		{"-scheme nope", `unknown scheme "nope"`},
		{"-study horizon -horizon 6", "cannot be combined with -horizon"},
		{"-study margins -json -format csv", "-json only applies to -scheme"},
		{"-json", "-json only applies to -scheme"},
		{"-study nope", `unknown study "nope"`},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesIgnoredFlags$")
		cmd.Env = append(os.Environ(), "TEGSIM_CHILD_ARGS="+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("tegsim %s: exited with %v, want exit status 1; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("tegsim %s: stderr does not say %q:\n%s", tc.args, tc.want, stderr.String())
		}
	}
}

// tegsimChild runs tegsim with args in a child process and returns its
// standard output.
func tegsimChild(t *testing.T, args string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesIgnoredFlags$")
	cmd.Env = append(os.Environ(), "TEGSIM_CHILD_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tegsim %s: %v; stderr:\n%s", args, err, stderr.String())
	}
	return out
}

// TestStudiesByteIdenticalAcrossWorkers: every study runs as
// scenario-matrix cells with coordinate-derived seeds and prices
// controller runtime from counted work, so its CSV is byte-identical
// at any -workers count. Four workers force the concurrent path even
// on a single-CPU host.
func TestStudiesByteIdenticalAcrossWorkers(t *testing.T) {
	for _, study := range []string{"table1", "window", "horizon", "predictors", "margins", "faults", "seeds", "bank"} {
		args := "-study " + study + " -duration 10 -modules 20 -format csv"
		serial := tegsimChild(t, args+" -workers 1")
		parallel := tegsimChild(t, args+" -workers 4")
		if len(bytes.TrimSpace(serial)) == 0 {
			t.Fatalf("-study %s printed nothing", study)
		}
		if !bytes.Equal(serial, parallel) {
			t.Errorf("-study %s: -workers 4 output differs from -workers 1\n%s\n%s", study, parallel, serial)
		}
	}
}

// runStudy runs one matrix-backed study as tegsim builds it from its
// default flags, over the default synth trace cut to duration seconds.
func runStudy(t *testing.T, study string, duration float64, failures, seeds int) []experiments.MatrixCell {
	t.Helper()
	synth := drive.DefaultSynthConfig()
	synth.Duration = duration
	base := scenario.Matrix{TickS: 0.5, HorizonTicks: 4, ArraySizes: []int{100}}
	ms, _, err := studyMatrix(study, base, synth, failures, seeds)
	if err != nil {
		t.Fatal(err)
	}
	var cells []experiments.MatrixCell
	for _, m := range ms {
		res, err := experiments.MatrixSweep(t.Context(), m, experiments.MatrixOptions{Workers: 0})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, res.Cells...)
	}
	return cells
}

// TestTableIStudyMatrix: at tegsim's defaults the Table I study is the
// bare synth-trace spec the experiments golden test runs, so that test
// pins what `tegsim -study table1` prints.
func TestTableIStudyMatrix(t *testing.T) {
	base := scenario.Matrix{TickS: 0.5, HorizonTicks: 4, ArraySizes: []int{100}}
	ms, _, err := studyMatrix("table1", base, drive.DefaultSynthConfig(), 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	bare := scenario.Matrix{Cycles: []scenario.CycleSpec{{Synth: &scenario.SynthSpec{}}}, Schemes: experiments.TableISchemes}
	want, err := bare.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || !reflect.DeepEqual(ms[0], want) {
		t.Errorf("-study table1 runs %+v, want the bare spec %+v", ms, want)
	}
}

// TestSchemeIsTableICell: a single -scheme run is Table I's cell for
// that scheme, the same coordinate seed, trace and system, so its
// -json totals equal the cell's bit for bit.
func TestSchemeIsTableICell(t *testing.T) {
	const duration = 60
	cells := runStudy(t, "table1", duration, 0, 0)
	if len(cells) != len(experiments.TableISchemes) {
		t.Fatalf("%d Table I cells", len(cells))
	}
	for _, c := range cells {
		out := tegsimChild(t, fmt.Sprintf("-scheme %s -json -duration %d", strings.ToLower(c.Scheme), duration))
		res, err := report.UnmarshalResult(out)
		if err != nil {
			t.Fatal(err)
		}
		got := experiments.MatrixCell{Cell: c.Cell, Jobs: 1,
			EnergyOutJ: res.EnergyOutJ, OverheadJ: res.OverheadJ, IdealEnergyJ: res.IdealEnergyJ,
			SwitchEvents: res.SwitchEvents, SwitchToggles: res.SwitchToggles, AvgRuntime: res.AvgRuntime}
		if res.Scheme != c.Scheme || got != c {
			t.Errorf("-scheme %s printed %s\n%+v\nwant Table I's cell\n%+v", c.Scheme, res.Scheme, got, c)
		}
		if len(res.Ticks) != 2*duration+1 {
			t.Errorf("-scheme %s kept %d ticks, want %d", c.Scheme, len(res.Ticks), 2*duration+1)
		}
	}
}

// TestWindowStudy: the window study keeps its three rows, its
// full-band cell is Table I's INOR cell bit for bit (same coordinate,
// seed and plant), and the narrowest band cannot out-harvest the full
// one.
func TestWindowStudy(t *testing.T) {
	const duration = 40
	window := runStudy(t, "window", duration, 0, 0)
	if len(window) != 3 {
		t.Fatalf("%d window cells, want 3", len(window))
	}
	var inor experiments.MatrixCell
	for _, c := range runStudy(t, "table1", duration, 0, 0) {
		if c.Scheme == "INOR" {
			inor = c
		}
	}
	inor.Index = 0 // its position in the four-scheme grid
	if window[0] != inor {
		t.Errorf("full-band cell differs from Table I's INOR cell:\n%+v\n%+v", window[0], inor)
	}
	if window[0].EnergyOutJ < window[2].EnergyOutJ*0.98 {
		t.Errorf("full band %v J below the [12, 16] V band's %v J", window[0].EnergyOutJ, window[2].EnergyOutJ)
	}
	csv := tegsimChild(t, fmt.Sprintf("-study window -duration %d -format csv", duration))
	want := fmt.Sprintf("min_input_v,max_input_v,energy_j\n4.5,36.0,%.1f\n", inor.EnergyOutJ)
	if !strings.HasPrefix(string(csv), want) || bytes.Count(csv, []byte("\n")) != 4 {
		t.Errorf("-study window printed\n%s\nwant a header, three rows, the first\n%s", csv, want)
	}
}

func TestFaultStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("fault study is slow")
	}
	healthy, faulted := map[string]experiments.MatrixCell{}, map[string]experiments.MatrixCell{}
	for _, c := range runStudy(t, "faults", 100, 15, 0) {
		if c.Fault == "none" {
			healthy[c.Scheme] = c
		} else {
			faulted[c.Scheme] = c
		}
	}
	if len(healthy) != 3 || len(faulted) != 3 {
		t.Fatalf("%d healthy and %d faulted cells, want 3 each", len(healthy), len(faulted))
	}
	for scheme, f := range faulted {
		h := healthy[scheme]
		if f.EnergyOutJ <= 0 || f.EnergyOutJ >= h.EnergyOutJ {
			t.Errorf("%s: faulty %v vs healthy %v", scheme, f.EnergyOutJ, h.EnergyOutJ)
		}
		if r := f.EnergyOutJ / h.EnergyOutJ; r <= 0 || r >= 1 {
			t.Errorf("%s: retained fraction %v", scheme, r)
		}
	}
	// Reconfiguration captures more of the surviving ideal power than
	// the static baseline.
	if in, base := faulted["INOR"].Ratio(), faulted["Baseline"].Ratio(); in <= base {
		t.Errorf("INOR capture %v not above baseline %v", in, base)
	}
}

func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	const seeds = 4
	byCycle := map[string]map[string]experiments.MatrixCell{}
	for _, c := range runStudy(t, "seeds", 60, 0, seeds) {
		if byCycle[c.Cycle] == nil {
			byCycle[c.Cycle] = map[string]experiments.MatrixCell{}
		}
		byCycle[c.Cycle][c.Scheme] = c
	}
	if len(byCycle) != seeds {
		t.Fatalf("%d traces, want %d", len(byCycle), seeds)
	}
	beats := 0
	for cycle, cs := range byCycle {
		dnor, inor, base := cs["DNOR"], cs["INOR"], cs["Baseline"]
		// The baseline gain must be robustly positive on every trace.
		if gain := dnor.EnergyOutJ/base.EnergyOutJ - 1; gain <= 0.05 {
			t.Errorf("%s: gain %v not robustly positive", cycle, gain)
		}
		// DNOR must slash overhead on every trace.
		if ratio := inor.OverheadJ / dnor.OverheadJ; ratio < 3 {
			t.Errorf("%s: overhead ratio %v too small", cycle, ratio)
		}
		if dnor.EnergyOutJ >= inor.EnergyOutJ {
			beats++
		}
	}
	if beats < seeds-1 {
		t.Errorf("DNOR beat INOR on only %d of %d seeds", beats, seeds)
	}
}

func TestBankStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("bank study is slow")
	}
	type level struct{ inor, base float64 }
	levels := map[float64]*level{}
	for _, c := range runStudy(t, "bank", 60, 0, 0) {
		l := levels[c.Maldistribution]
		if l == nil {
			l = &level{}
			levels[c.Maldistribution] = l
		}
		if c.Scheme == "INOR" {
			l.inor = c.EnergyOutJ
		} else {
			l.base = c.EnergyOutJ
		}
	}
	if len(levels) != 4 {
		t.Fatalf("%d maldistribution levels, want 4", len(levels))
	}
	for m, l := range levels {
		if gain := l.inor/l.base - 1; gain <= 0.1 {
			t.Errorf("m=%v: gain %v not robustly positive (INOR %v, baseline %v)", m, gain, l.inor, l.base)
		}
	}
	// The maldistribution must actually change the harvest.
	if levels[0].inor == levels[0.6].inor {
		t.Error("maldistribution had no effect")
	}
}

// variantCells indexes one DNOR-variant study's cells by scheme entry.
func variantCells(t *testing.T, study string, duration float64) map[string]experiments.MatrixCell {
	t.Helper()
	out := map[string]experiments.MatrixCell{}
	for _, c := range runStudy(t, study, duration, 0, 0) {
		out[c.Scheme] = c
	}
	return out
}

func TestHorizonAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	const duration = 100
	cells := variantCells(t, "horizon", duration)
	if len(cells) != 5 {
		t.Fatalf("%d horizons, want 5", len(cells))
	}
	// Switch events are bounded by the decision count ticks/(tp+1),
	// and every horizon must stay far below INOR's every-tick rate.
	ticks := int(duration/0.5) + 1
	for _, tp := range []int{1, 2, 4, 6, 8} {
		scheme := fmt.Sprintf("DNOR:horizon=%d", tp)
		if tp == 4 {
			scheme = "DNOR" // the matrix's own horizon
		}
		c, ok := cells[scheme]
		if !ok {
			t.Fatalf("no %s cell", scheme)
		}
		if c.EnergyOutJ <= 0 {
			t.Errorf("tp=%d harvested nothing", tp)
		}
		maxDecisions := ticks/(tp+1) + 1
		if c.SwitchEvents > maxDecisions {
			t.Errorf("tp=%d: %d switches exceed %d decisions", tp, c.SwitchEvents, maxDecisions)
		}
		if c.SwitchEvents > ticks/4 {
			t.Errorf("tp=%d: %d switches of %d ticks — not durable", tp, c.SwitchEvents, ticks)
		}
	}
}

func TestPredictorAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	cells := variantCells(t, "predictors", 100)
	if len(cells) != 6 {
		t.Fatalf("%d predictors", len(cells))
	}
	for _, scheme := range []string{"DNOR", "DNOR:predictor=bpnn", "DNOR:predictor=svr",
		"DNOR:predictor=holt", "DNOR:predictor=hold", "DNOR:predictor=oracle"} {
		c, ok := cells[scheme]
		if !ok {
			t.Errorf("missing predictor %s", scheme)
		} else if c.EnergyOutJ <= 0 {
			t.Errorf("%s harvested nothing", scheme)
		}
	}
	// The oracle forecasts perfectly but is no upper bound: DNOR prices
	// step 0 of its window from the noisy sensed temperatures and its
	// switch rule is greedy, so it may lose a little to MLR, never 3%.
	if oracle, mlr := cells["DNOR:predictor=oracle"].EnergyOutJ, cells["DNOR"].EnergyOutJ; oracle < mlr*0.97 {
		t.Errorf("oracle %v well below MLR %v", oracle, mlr)
	}
}

func TestMarginAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	cells := variantCells(t, "margins", 120)
	margins := []string{"DNOR", "DNOR:margin_j=0.25", "DNOR:margin_j=0.5", "DNOR:margin_j=1", "DNOR:margin_j=2"}
	if len(cells) != len(margins) {
		t.Fatalf("%d margins, want %d", len(cells), len(margins))
	}
	// Switch count must be non-increasing in the margin.
	for i := 1; i < len(margins); i++ {
		prev, cur := cells[margins[i-1]], cells[margins[i]]
		if cur.SwitchEvents > prev.SwitchEvents {
			t.Errorf("%s switched more (%d) than %s (%d)", margins[i], cur.SwitchEvents, margins[i-1], prev.SwitchEvents)
		}
	}
	// A moderate margin must not destroy the harvest.
	if m2, m0 := cells["DNOR:margin_j=2"].EnergyOutJ, cells["DNOR"].EnergyOutJ; m2 < m0*0.9 {
		t.Errorf("margin 2 J lost too much energy: %v vs %v", m2, m0)
	}
}

// TestVariantStudiesServedByMatrixEndpoint: the horizon, predictor and
// margin studies are plain scenario matrices, so posting the matrix
// tegsim builds to tegserve's /v1/matrix returns the cells tegsim
// computes, twice (the second time from the cache), and rendering the
// served cells reproduces tegsim's CSV byte for byte.
func TestVariantStudiesServedByMatrixEndpoint(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	defer ts.Close()
	synth := drive.DefaultSynthConfig()
	synth.Duration = 10
	base := scenario.Matrix{TickS: 0.5, HorizonTicks: 4, ArraySizes: []int{20}}
	for _, study := range []string{"horizon", "predictors", "margins"} {
		ms, render, err := studyMatrix(study, base, synth, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := ms[0]
		local, err := experiments.MatrixSweep(t.Context(), m, experiments.MatrixOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"miss", "hit"} {
			resp, err := http.Post(ts.URL+"/v1/matrix", "application/json", bytes.NewReader(spec))
			if err != nil {
				t.Fatal(err)
			}
			var env report.MatrixEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v", study, resp.StatusCode, err)
			}
			if got := resp.Header.Get("X-Cache"); got != want {
				t.Errorf("%s: X-Cache %q, want %q", study, got, want)
			}
			if !reflect.DeepEqual(env.Cells, local.Cells) {
				t.Errorf("%s (%s): served cells differ from tegsim's\nserved %+v\nlocal  %+v", study, want, env.Cells, local.Cells)
			}
			tab, err := render(ms, env.Cells)
			if err != nil {
				t.Fatal(err)
			}
			var served bytes.Buffer
			if err := tab.Write(&served, report.CSV); err != nil {
				t.Fatal(err)
			}
			if csv := tegsimChild(t, "-study "+study+" -duration 10 -modules 20 -format csv"); !bytes.Equal(served.Bytes(), csv) {
				t.Errorf("%s: served cells render\n%s\ntegsim prints\n%s", study, served.Bytes(), csv)
			}
		}
	}
}
