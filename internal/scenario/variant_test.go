package scenario

import (
	"context"
	"errors"
	"strings"
	"testing"

	"tegrecon/internal/core"
	"tegrecon/internal/sim"
)

// TestSchemeVariantCanonicalForms: a Schemes entry normalizes to the
// registry name plus the keys that differ from the default, in a fixed
// order, numbers in shortest round-trip form; a variant equal to the
// default is the bare name, so every bare-name spec keeps its bytes.
func TestSchemeVariantCanonicalForms(t *testing.T) {
	for _, tc := range []struct {
		horizon int
		in      string
		want    string
	}{
		{0, "DNOR", "DNOR"},
		{0, "dnor", "DNOR"},
		{0, "static", "Baseline"},
		{0, "DNOR:horizon=8", "DNOR:horizon=8"},
		{0, "DNOR:horizon=4", "DNOR"},
		{0, "DNOR:horizon=08", "DNOR:horizon=8"},
		{0, "dnor:margin_j=0.50,predictor=ORACLE,horizon=6", "DNOR:horizon=6,predictor=oracle,margin_j=0.5"},
		{0, "DNOR:predictor=mlr", "DNOR"},
		{0, "DNOR:predictor=Holt", "DNOR:predictor=holt"},
		{0, "DNOR:margin_j=0", "DNOR"},
		{0, "DNOR:margin_j=-0", "DNOR"},
		{0, "DNOR:margin_j=1e-3", "DNOR:margin_j=0.001"},
		{0, "DNOR:margin_j=0x1p-1", "DNOR:margin_j=0.5"},
		{0, "DNOR:margin_j=1e21", "DNOR:margin_j=1e+21"},
		{0, "DNOR:horizon=4,predictor=mlr,margin_j=0", "DNOR"},
		{6, "DNOR:horizon=6", "DNOR"},
		{6, "DNOR:horizon=4", "DNOR:horizon=4"},
	} {
		m := &Matrix{HorizonTicks: tc.horizon, Cycles: []CycleSpec{{Name: "nedc"}}, Schemes: []string{tc.in}}
		n, err := m.Normalize()
		if err != nil {
			t.Errorf("%q (horizon %d): %v", tc.in, tc.horizon, err)
			continue
		}
		if got := n.Schemes[0]; got != tc.want {
			t.Errorf("%q (horizon %d) normalized to %q, want %q", tc.in, tc.horizon, got, tc.want)
		}
		again, err := n.Normalize()
		if err != nil || again.Schemes[0] != n.Schemes[0] {
			t.Errorf("%q: renormalized to %v, %v", n.Schemes[0], again, err)
		}
		if strings.Contains(n.Schemes[0], ";") {
			t.Errorf("%q: canonical entry contains the coordinate separator", n.Schemes[0])
		}
	}
}

// TestSchemeVariantRefusals: malformed, out-of-range, repeated or
// misplaced keys are refused as spec errors, and so are two entries
// that normalize to one.
func TestSchemeVariantRefusals(t *testing.T) {
	many := make([]string, maxSchemeAxis+1)
	for i := range many {
		many[i] = "DNOR:horizon=" + string(rune('1'+i%9)) + strings.Repeat("0", i/9)
	}
	for _, schemes := range [][]string{
		{"INOR:horizon=8"},
		{"Baseline:margin_j=0"},
		{"EHTR:predictor=mlr"},
		{"PID:horizon=8"},
		{"DNOR:"},
		{"DNOR:horizon"},
		{"DNOR:horizon=0"},
		{"DNOR:horizon=-1"},
		{"DNOR:horizon=10001"},
		{"DNOR:horizon=1.5"},
		{"DNOR:horizon=8,horizon=8"},
		{"DNOR:horizon=8,horizon=6"},
		{"DNOR:horizon=8,"},
		{"DNOR:horizon=8:predictor=svr"},
		{"DNOR:horizon=8;x"},
		{"DNOR:window=3"},
		{"DNOR:Horizon=8"},
		{"DNOR:predictor=arima"},
		{"DNOR:predictor="},
		{"DNOR:margin_j=-0.5"},
		{"DNOR:margin_j=NaN"},
		{"DNOR:margin_j=Inf"},
		{"DNOR:margin_j=1e400"},
		{"DNOR:margin_j=half"},
		{"DNOR", "DNOR:horizon=4"},
		{"DNOR:horizon=8", "dnor:horizon=08"},
		{"DNOR:predictor=mlr", "dnor"},
		many,
	} {
		m := &Matrix{Cycles: []CycleSpec{{Name: "nedc"}}, Schemes: schemes}
		if _, err := m.Normalize(); !errors.Is(err, ErrSpec) {
			t.Errorf("%q: %v, want a refused spec", schemes, err)
		}
	}
}

// TestExpandBuildsVariants: Expand builds each variant's controller
// with its own horizon and margin, and an oracle cell runs on its own
// trace. A margin no window can clear holds the first adoption for the
// whole run.
func TestExpandBuildsVariants(t *testing.T) {
	m := &Matrix{
		MaxDurationS: 60,
		Cycles:       []CycleSpec{{Synth: &SynthSpec{Seed: 3, DurationS: 60}}},
		Schemes:      []string{"DNOR", "DNOR:horizon=8", "DNOR:margin_j=1e9", "DNOR:predictor=oracle"},
		ArraySizes:   []int{20},
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[string]int{}
	for j, c := range ex.CellOf {
		byScheme[ex.Cells[c].Scheme] = j
	}
	const held = "DNOR:margin_j=1e+09" // the canonical form of 1e9
	if len(byScheme) != 4 {
		t.Fatalf("jobs by scheme %v, want the four entries", byScheme)
	}
	for scheme, want := range map[string]int{"DNOR": 4, "DNOR:horizon=8": 8, held: 4} {
		d, ok := ex.Jobs[byScheme[scheme]].Ctrl.(*core.DNOR)
		if !ok || d.HorizonTicks() != want {
			t.Errorf("%s: controller %T with horizon %v, want DNOR at %d", scheme, ex.Jobs[byScheme[scheme]].Ctrl, d, want)
		}
	}
	res, err := sim.Batch{}.Run(context.Background(), ex.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	bare, hold := res[byScheme["DNOR"]], res[byScheme[held]]
	if hold.SwitchEvents != 1 || bare.SwitchEvents <= 1 {
		t.Errorf("switch events: DNOR %d, %s %d; want the huge margin to hold its first adoption", bare.SwitchEvents, held, hold.SwitchEvents)
	}
	if oracle := res[byScheme["DNOR:predictor=oracle"]]; oracle.EnergyOutJ <= 0 {
		t.Errorf("oracle cell harvested %v J", oracle.EnergyOutJ)
	}
}
