package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
)

func sampleTable() *Table {
	return &Table{
		Title:  "sample",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTable().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Table{Title: "x"}
	if err := bad.Validate(); err == nil {
		t.Error("no header should error")
	}
	ragged := sampleTable()
	ragged.Rows = append(ragged.Rows, []string{"only-one"})
	if err := ragged.Validate(); err == nil {
		t.Error("ragged row should error")
	}
}

func TestWriteTextAlignment(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "sample\n") {
		t.Errorf("missing title: %q", out)
	}
	// title(1) + header(1) + rule(1) + rows(2) = 5 lines.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// Columns align: "333" forces width 3 on the first column.
	for _, l := range lines[1:] {
		if len(l) < 5 {
			t.Errorf("line too short: %q", l)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,bb\n1,2\n333,4\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "sample" || len(back.Rows) != 2 || back.Rows[1][0] != "333" {
		t.Errorf("round trip = %+v", back)
	}
}

func TestWriteFormatDispatch(t *testing.T) {
	for _, f := range []Format{Text, CSV, JSON, ""} {
		var buf bytes.Buffer
		if err := sampleTable().Write(&buf, f); err != nil {
			t.Errorf("format %q: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Errorf("format %q wrote nothing", f)
		}
	}
	var buf bytes.Buffer
	if err := sampleTable().Write(&buf, "yaml"); err == nil {
		t.Error("unknown format should error")
	}
}

func TestWriteRejectsInvalidTable(t *testing.T) {
	bad := &Table{}
	var buf bytes.Buffer
	if err := bad.WriteText(&buf); err == nil {
		t.Error("WriteText should validate")
	}
	if err := bad.WriteCSV(&buf); err == nil {
		t.Error("WriteCSV should validate")
	}
	if err := bad.WriteJSON(&buf); err == nil {
		t.Error("WriteJSON should validate")
	}
}

func TestFromTableI(t *testing.T) {
	r := &experiments.TableIResult{
		Rows: []experiments.TableIRow{
			{Scheme: "DNOR", EnergyOutJ: 100.25, OverheadJ: 1.5, AvgRuntime: 2 * time.Millisecond, SwitchEvents: 3},
		},
	}
	tab := FromTableI(r)
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	row := tab.Rows[0]
	if row[0] != "DNOR" || row[1] != "100.2" || row[4] != "3" {
		t.Errorf("row = %v", row)
	}
	if row[3] != "2.0000" {
		t.Errorf("runtime cell = %q", row[3])
	}
}

func TestFromFaultStudyAndSeedSweep(t *testing.T) {
	ft := FromFaultStudy([]experiments.FaultPoint{
		{Scheme: "INOR", HealthyEnergyJ: 10, FaultyEnergyJ: 8, RetainedFraction: 0.8, FaultyCaptureFrac: 0.9},
	})
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	if ft.Rows[0][3] != "80.0%" || ft.Rows[0][4] != "90.0%" {
		t.Errorf("fault row = %v", ft.Rows[0])
	}
	ss := FromSeedSweep(&experiments.SeedSweepResult{
		Seeds: 5, GainMean: 0.31, GainStd: 0.05, GainMin: 0.22,
		OverheadRatioMean: 25, OverheadRatioMin: 18, DNORBeatsINOR: 5,
	})
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	if ss.Rows[0][1] != "31.0%" || ss.Rows[0][6] != "5/5" {
		t.Errorf("sweep row = %v", ss.Rows[0])
	}
}

// TestFromSweep pins the cycle × scheme rendering: rows follow the
// matrix's cycle and scheme order (not the cells' order), a missing
// ideal renders capture as "/", and runtime is always zero.
func TestFromSweep(t *testing.T) {
	m := &scenario.Matrix{
		Cycles:  []scenario.CycleSpec{{Name: "nedc", Label: "nedc"}},
		Schemes: []string{"DNOR", "Baseline"},
	}
	cell := func(scheme string, energy, overhead float64, events int, ideal float64) experiments.MatrixCell {
		c := experiments.MatrixCell{EnergyOutJ: energy, OverheadJ: overhead, SwitchEvents: events, IdealEnergyJ: ideal}
		c.Cycle, c.Scheme, c.DurationS = "nedc", scheme, 1180
		return c
	}
	tab := FromSweep(m, []experiments.MatrixCell{
		cell("Baseline", 100, 0, 0, 0),
		cell("DNOR", 150, 2.5, 7, 200),
	})
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	dnor, base := tab.Rows[0], tab.Rows[1]
	if dnor[0] != "nedc" || dnor[1] != "DNOR" || dnor[2] != "1180.0" || dnor[3] != "150.0" || dnor[4] != "2.50" || dnor[5] != "7" {
		t.Errorf("DNOR row = %v", dnor)
	}
	if dnor[6] != "0.0000" || dnor[7] != "75.0%" {
		t.Errorf("runtime/capture cells = %v", dnor)
	}
	if base[1] != "Baseline" || base[7] != "/" {
		t.Errorf("Baseline row = %v", base)
	}
}

func TestRemainingConverters(t *testing.T) {
	if err := FromHorizon([]experiments.HorizonPoint{{HorizonTicks: 2, EnergyOutJ: 5}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := FromWindow([]experiments.WindowPoint{{MinInput: 4.5, MaxInput: 36, EnergyOutJ: 5}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := FromPredictors([]experiments.PredictorPoint{{Predictor: "MLR", EnergyOutJ: 5}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := FromBank([]experiments.BankPoint{{Maldistribution: 0.3, Paths: 5, INOREnergyJ: 6, BaselineEnergyJ: 4, Gain: 0.5}}).Validate(); err != nil {
		t.Error(err)
	}
	if err := FromMargins([]experiments.MarginPoint{{MarginJ: 1, EnergyOutJ: 5}}).Validate(); err != nil {
		t.Error(err)
	}
}
