package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
)

// TestFatalReachesStderr runs tegfig in a child process on an unknown
// figure: the child must exit 1 and say why on stderr, which the
// Warn-level slog default must not swallow.
func TestFatalReachesStderr(t *testing.T) {
	if args := os.Getenv("TEGFIG_CHILD_ARGS"); args != "" {
		os.Args = append([]string{"tegfig"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalReachesStderr$")
	cmd.Env = append(os.Environ(), "TEGFIG_CHILD_ARGS=-fig 9")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("tegfig -fig 9: exited with %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	if want := `tegfig: unknown figure "9"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("tegfig -fig 9: stderr does not say %q:\n%s", want, stderr.String())
	}
}

// tegfigChild runs tegfig with args in a child process and returns its
// standard output.
func tegfigChild(t *testing.T, args string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalReachesStderr$")
	cmd.Env = append(os.Environ(), "TEGFIG_CHILD_ARGS="+args)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tegfig %s: %v; stderr:\n%s", args, err, stderr.String())
	}
	return out
}

// TestFigureDigests pins the CSVs that read scenario-matrix cells.
// Controller runtime is counted work, so each is the same bytes on
// every run; a change here changed the physics, the count formulas or
// the cells the figures read.
func TestFigureDigests(t *testing.T) {
	for fig, want := range map[string]string{
		"6":       "7f6ab9f1f5400a492dcc3f2ebff13976adb13750c85e1eedcc4011379adcd678",
		"7":       "6ea652c7438bb2fa58c16a8c9572af55373a80dd43bf91f3b7634e21d908481e",
		"scaling": "fbb0e1fed6639639463293e0730ad94513ccd3037fec1d7da468e11e5fbf7339",
	} {
		sum := sha256.Sum256(tegfigChild(t, "-fig "+fig))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("-fig %s: sha256 %s, want %s", fig, got, want)
		}
	}
}

// TestFiguresReadTableICells: Figs. 6/7 expand the same matrix as
// `tegsim -study table1` (the bare synth-trace spec), and the scaling
// curve's N = 100 point is Table I's INOR and EHTR runtime, its
// EHTR/INOR ratio Table I's speedup. The ratio grows strictly with N.
func TestFiguresReadTableICells(t *testing.T) {
	got, err := synthMatrix(experiments.TableISchemes).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	bare := scenario.Matrix{Cycles: []scenario.CycleSpec{{Synth: &scenario.SynthSpec{}}}, Schemes: experiments.TableISchemes}
	want, err := bare.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("figures run %+v, want Table I's %+v", got, want)
	}
	sweep, err := experiments.MatrixSweep(t.Context(), want, experiments.MatrixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := experiments.TableI(want, sweep.Cells)
	if err != nil {
		t.Fatal(err)
	}
	us := map[string]string{}
	for _, r := range tab.Rows {
		us[r.Scheme] = f(float64(r.AvgRuntime) / 1e3)
	}

	rows, err := csv.NewReader(bytes.NewReader(tegfigChild(t, "-fig scaling"))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(scalingSizes) {
		t.Fatalf("%d scaling rows, want a header and %d sizes", len(rows), len(scalingSizes))
	}
	prev, prevN := 0.0, "0"
	for i, row := range rows[1:] {
		if row[0] != strconv.Itoa(scalingSizes[i]) {
			t.Fatalf("row %d is N = %s, want %d", i, row[0], scalingSizes[i])
		}
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio <= prev {
			t.Errorf("N = %s: EHTR/INOR ratio %v does not exceed N = %s's %v", row[0], ratio, prevN, prev)
		}
		prev, prevN = ratio, row[0]
		if row[0] == "100" && (row[1] != us["INOR"] || row[2] != us["EHTR"] || row[3] != f(tab.SpeedupINOR)) {
			t.Errorf("N = 100 point %v, want Table I's INOR %s µs, EHTR %s µs, speedup %s",
				row[1:], us["INOR"], us["EHTR"], f(tab.SpeedupINOR))
		}
	}
}
