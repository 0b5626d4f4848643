package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
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

// TestStudiesByteIdenticalAcrossWorkers: the fault, seed and bank
// studies run as scenario-matrix cells with coordinate-derived seeds
// and deterministic runtime, so their CSV is byte-identical at any
// -workers count. Four workers force the concurrent path even on a
// single-CPU host.
func TestStudiesByteIdenticalAcrossWorkers(t *testing.T) {
	for _, study := range []string{"faults", "seeds", "bank"} {
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
	m, _, err := studyMatrix(study, base, synth, failures, seeds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.MatrixSweep(t.Context(), m, experiments.MatrixOptions{Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	return res.Cells
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
