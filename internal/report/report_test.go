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

// studyCell is a rendered-study test cell: only the axis values and
// energies the study tables read.
func studyCell(cycle, scheme, fault string, paths int, mal, energy, overhead, ideal float64) experiments.MatrixCell {
	c := experiments.MatrixCell{EnergyOutJ: energy, OverheadJ: overhead, IdealEnergyJ: ideal}
	c.Cycle, c.Scheme, c.Fault, c.Paths, c.Maldistribution = cycle, scheme, fault, paths, mal
	return c
}

// TestFromFaultStudyAndSeedSweep pins the Ext-E and Ext-F renderings:
// a fault row sets each faulted cell against the same scheme's
// fault-free cell, in the matrix's fault and scheme order, and the seed
// sweep summarizes DNOR's per-cycle gain and INOR/DNOR overhead ratio.
func TestFromFaultStudyAndSeedSweep(t *testing.T) {
	fm, err := (&scenario.Matrix{
		Cycles:  []scenario.CycleSpec{{Name: "nedc"}},
		Schemes: []string{"INOR", "Baseline"},
		Faults:  []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: 5}}},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ft := FromFaultStudy(fm, []experiments.MatrixCell{
		studyCell("NEDC", "Baseline", "storm:5", 1, 0, 4, 0, 0),
		studyCell("NEDC", "INOR", "storm:5", 1, 0, 8, 0, 8/0.9),
		studyCell("NEDC", "Baseline", "none", 1, 0, 5, 0, 20),
		studyCell("NEDC", "INOR", "none", 1, 0, 10, 0, 12),
	})
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(ft.Rows) != 2 {
		t.Fatalf("fault rows = %v, want one per scheme", ft.Rows)
	}
	if got := strings.Join(ft.Rows[0], " "); got != "storm:5 INOR 10.0 8.0 80.0% 90.0%" {
		t.Errorf("INOR fault row = %q", got)
	}
	if got := strings.Join(ft.Rows[1], " "); got != "storm:5 Baseline 5.0 4.0 80.0% /" {
		t.Errorf("Baseline fault row = %q", got)
	}

	sm, err := (&scenario.Matrix{Cycles: []scenario.CycleSpec{
		{Synth: &scenario.SynthSpec{Seed: 101}, Label: "a"},
		{Synth: &scenario.SynthSpec{Seed: 202}, Label: "b"},
	}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ss := FromSeedSweep(sm, []experiments.MatrixCell{
		studyCell("a", "DNOR", "none", 1, 0, 12, 1, 0),
		studyCell("a", "INOR", "none", 1, 0, 11, 20, 0),
		studyCell("a", "Baseline", "none", 1, 0, 10, 0, 0),
		studyCell("b", "DNOR", "none", 1, 0, 14, 2, 0),
		studyCell("b", "INOR", "none", 1, 0, 15, 20, 0),
		studyCell("b", "Baseline", "none", 1, 0, 10, 0, 0),
	})
	if err := ss.Validate(); err != nil {
		t.Fatal(err)
	}
	// Gains 20% and 40%; overhead ratios 20 and 10; DNOR beats INOR on a.
	if got := strings.Join(ss.Rows[0], " "); got != "2 30.0% 14.1% 20.0% 15.0 10.0 1/2" {
		t.Errorf("sweep row = %q", got)
	}
}

// TestFromSweep pins the cycle × scheme rendering: rows follow the
// matrix's cycle and scheme order (not the cells' order), a missing
// ideal renders capture as "/", and runtime renders in milliseconds.
func TestFromSweep(t *testing.T) {
	m := &scenario.Matrix{
		Cycles:  []scenario.CycleSpec{{Name: "nedc", Label: "nedc"}},
		Schemes: []string{"DNOR", "Baseline"},
	}
	cell := func(scheme string, energy, overhead float64, events int, ideal float64) experiments.MatrixCell {
		c := experiments.MatrixCell{EnergyOutJ: energy, OverheadJ: overhead, SwitchEvents: events, IdealEnergyJ: ideal, AvgRuntime: 25 * time.Microsecond}
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
	if dnor[6] != "0.0250" || dnor[7] != "75.0%" {
		t.Errorf("runtime/capture cells = %v", dnor)
	}
	if base[1] != "Baseline" || base[7] != "/" {
		t.Errorf("Baseline row = %v", base)
	}
}

// TestFromBank pins the Ext-G rendering: rows follow the matrix's flow
// axis, not the cells' coordinate order (hex-sorted, m=0.6 comes
// before m=0.2), and a baseline that harvested nothing reads "/".
func TestFromBank(t *testing.T) {
	m, err := (&scenario.Matrix{
		Cycles:  []scenario.CycleSpec{{Name: "nedc"}},
		Schemes: []string{"INOR", "Baseline"},
		Flows:   []scenario.FlowSpec{{Paths: 5, Maldistribution: 0.2}, {Paths: 5, Maldistribution: 0.6}},
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tab := FromBank(m, []experiments.MatrixCell{
		studyCell("NEDC", "Baseline", "none", 5, 0.6, 0, 0, 0),
		studyCell("NEDC", "INOR", "none", 5, 0.6, 7, 0, 0),
		studyCell("NEDC", "Baseline", "none", 5, 0.2, 4, 0, 0),
		studyCell("NEDC", "INOR", "none", 5, 0.2, 6, 0, 0),
	})
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, r := range tab.Rows {
		rows = append(rows, strings.Join(r, " "))
	}
	want := []string{"0.20 5 6.0 4.0 50.0%", "0.60 5 7.0 0.0 /"}
	if strings.Join(rows, "|") != strings.Join(want, "|") {
		t.Errorf("bank rows = %q, want %q", rows, want)
	}
}

func TestRemainingConverters(t *testing.T) {
	tab := FromWindow([][2]float64{{4.5, 36}, {8, 24}}, []experiments.MatrixCell{{EnergyOutJ: 5}, {EnergyOutJ: 4.5}})
	if err := tab.Validate(); err != nil {
		t.Error(err)
	}
	if got := strings.Join(tab.Rows[1], " "); got != "8.0 24.0 4.5" {
		t.Errorf("window row %q, want the second band with its cell's energy", got)
	}
}
