package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// testMatrix is a small but fully-axed spec: 2 cycles × 2 schemes ×
// 2 ambients × 2 flows × 2 faults × 2 sizes = 64 cells.
func testMatrix() *Matrix {
	return &Matrix{
		Name:         "test",
		MaxDurationS: 30,
		Cycles: []CycleSpec{
			{Name: "nedc"},
			{Synth: &SynthSpec{Profile: "urban", Seed: 3, DurationS: 30}},
		},
		Schemes:    []string{"INOR", "DNOR"},
		Ambients:   []AmbientSpec{{AmbientC: 10}, {AmbientC: 30, CoolantOffsetC: 5}},
		Flows:      []FlowSpec{{Paths: 1}, {Paths: 2, Maldistribution: 0.4}},
		Faults:     []FaultSpec{{}, {Storm: &StormSpec{Count: 2}}},
		ArraySizes: []int{20, 40},
	}
}

func TestNormalizeDefaultsAndIdempotence(t *testing.T) {
	m := &Matrix{Cycles: []CycleSpec{{Name: "NEDC"}}}
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != SpecVersion || n.Seed != 7 || n.TickS != 0.5 || *n.SensorNoiseC != 0.1 || n.HorizonTicks != 4 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if n.Cycles[0].Name != "nedc" || n.Cycles[0].Label != "nedc" {
		t.Fatalf("cycle not canonicalized: %+v", n.Cycles[0])
	}
	if len(n.Schemes) != 4 {
		t.Fatalf("empty scheme axis should expand to the whole registry, got %v", n.Schemes)
	}
	if len(n.Ambients) != 1 || n.Ambients[0].AmbientC != 25 {
		t.Fatalf("empty ambient axis should collapse to 25°C, got %v", n.Ambients)
	}
	if len(n.Flows) != 1 || n.Flows[0].Paths != 1 {
		t.Fatalf("empty flow axis should collapse to one even path, got %v", n.Flows)
	}
	if len(n.Faults) != 1 || n.Faults[0].Name != "none" {
		t.Fatalf("empty fault axis should collapse to none, got %v", n.Faults)
	}
	if !reflect.DeepEqual(n.ArraySizes, []int{100}) {
		t.Fatalf("empty size axis should collapse to [100], got %v", n.ArraySizes)
	}

	n2, err := n.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n, n2) {
		t.Fatalf("Normalize is not idempotent:\n%+v\n%+v", n, n2)
	}
	if n.ConverterInputV != nil {
		t.Fatalf("unset converter band normalized to %v, want nil", *n.ConverterInputV)
	}
}

// TestNormalizeConverterBand: the LTM4607's own band is the default and
// normalizes away, so a spec that spells it out shares every byte of
// its canonical form with one that does not; a narrower band is kept
// as a copy and is a fixed point.
func TestNormalizeConverterBand(t *testing.T) {
	m := &Matrix{Cycles: []CycleSpec{{Name: "nedc"}}, ConverterInputV: &[2]float64{4.5, 36}}
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ConverterInputV != nil {
		t.Fatalf("default band normalized to %v, want nil", *n.ConverterInputV)
	}
	band := [2]float64{8, 24}
	m.ConverterInputV = &band
	if n, err = m.Normalize(); err != nil {
		t.Fatal(err)
	}
	band[0] = 12
	if n.ConverterInputV == nil || *n.ConverterInputV != [2]float64{8, 24} {
		t.Fatalf("band normalized to %v, want an independent [8 24]", n.ConverterInputV)
	}
	n2, err := n.Normalize()
	if err != nil || !reflect.DeepEqual(n, n2) {
		t.Fatalf("banded spec is not a fixed point: %v\n%+v\n%+v", err, n, n2)
	}
}

// TestExpandConverterBand: the band reaches every job's plant and
// leaves the cell coordinate and seeds alone, so a banded cell and its
// default-band twin run on one noise draw.
func TestExpandConverterBand(t *testing.T) {
	expand := func(band *[2]float64) *Expansion {
		t.Helper()
		m := &Matrix{MaxDurationS: 5, Cycles: []CycleSpec{{Name: "nedc"}}, Schemes: []string{"INOR"}, ArraySizes: []int{20}, ConverterInputV: band}
		ex, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	def, narrow := expand(nil), expand(&[2]float64{8, 24})
	if c := narrow.Jobs[0].Sys.Conv; c.MinInput != 8 || c.MaxInput != 24 {
		t.Errorf("banded job's converter band [%g, %g], want [8, 24]", c.MinInput, c.MaxInput)
	}
	if c := def.Jobs[0].Sys.Conv; c.MinInput != 4.5 || c.MaxInput != 36 {
		t.Errorf("default job's converter band [%g, %g], want [4.5, 36]", c.MinInput, c.MaxInput)
	}
	if def.Cells[0] != narrow.Cells[0] || def.Jobs[0].Opts.Seed != narrow.Jobs[0].Opts.Seed {
		t.Errorf("band changed the cell or its seed:\n%+v\n%+v", def.Cells[0], narrow.Cells[0])
	}
}

func TestNormalizeRejections(t *testing.T) {
	base := func() *Matrix { return &Matrix{Cycles: []CycleSpec{{Name: "nedc"}}} }
	cases := []struct {
		name string
		mut  func(*Matrix)
	}{
		{"no cycles", func(m *Matrix) { m.Cycles = nil }},
		{"future version", func(m *Matrix) { m.Version = SpecVersion + 1 }},
		{"nan tick", func(m *Matrix) { m.TickS = math.NaN() }},
		{"huge tick", func(m *Matrix) { m.TickS = 7200 }},
		{"negative noise", func(m *Matrix) { v := -1.0; m.SensorNoiseC = &v }},
		{"negative horizon", func(m *Matrix) { m.HorizonTicks = -1 }},
		{"inf duration cap", func(m *Matrix) { m.MaxDurationS = math.Inf(1) }},
		{"sub-tick duration cap", func(m *Matrix) { m.MaxDurationS = 0.1 }},
		{"cycle with two sources", func(m *Matrix) { m.Cycles = []CycleSpec{{Name: "nedc", Synth: &SynthSpec{}}} }},
		{"unknown cycle", func(m *Matrix) { m.Cycles = []CycleSpec{{Name: "autobahn"}} }},
		{"duplicate cycle", func(m *Matrix) { m.Cycles = []CycleSpec{{Name: "nedc"}, {Name: "NEDC", Label: "again"}} }},
		{"duplicate label", func(m *Matrix) {
			m.Cycles = []CycleSpec{{Name: "nedc", Label: "x"}, {Name: "wltc", Label: "x"}}
		}},
		{"bad csv", func(m *Matrix) { m.Cycles = []CycleSpec{{CSV: "not,a\ntrace,csv"}} }},
		{"unknown scheme", func(m *Matrix) { m.Schemes = []string{"PID"} }},
		{"duplicate scheme", func(m *Matrix) { m.Schemes = []string{"inor", "INOR"} }},
		{"ambient too cold", func(m *Matrix) { m.Ambients = []AmbientSpec{{AmbientC: -60}} }},
		{"nan ambient", func(m *Matrix) { m.Ambients = []AmbientSpec{{AmbientC: math.NaN()}} }},
		{"descending range", func(m *Matrix) { m.Ambients = []AmbientSpec{{FromC: 30, ToC: 10, StepC: 5}} }},
		{"point plus range", func(m *Matrix) { m.Ambients = []AmbientSpec{{AmbientC: 20, FromC: 0, ToC: 10, StepC: 5}} }},
		{"duplicate ambient", func(m *Matrix) { m.Ambients = []AmbientSpec{{AmbientC: 20}, {AmbientC: 20}} }},
		{"huge range", func(m *Matrix) { m.Ambients = []AmbientSpec{{FromC: -40, ToC: 55, StepC: 0.0001}} }},
		{"single path maldistributed", func(m *Matrix) { m.Flows = []FlowSpec{{Paths: 1, Maldistribution: 0.5}} }},
		{"maldistribution one", func(m *Matrix) { m.Flows = []FlowSpec{{Paths: 2, Maldistribution: 1}} }},
		{"zero array size", func(m *Matrix) { m.ArraySizes = []int{0} }},
		{"duplicate size", func(m *Matrix) { m.ArraySizes = []int{50, 50} }},
		{"storm and events", func(m *Matrix) {
			m.Faults = []FaultSpec{{Events: []EventSpec{{TimeS: 1, Module: 0, To: "open"}}, Storm: &StormSpec{Count: 1}}}
		}},
		{"storm count and fraction", func(m *Matrix) { m.Faults = []FaultSpec{{Storm: &StormSpec{Count: 1, Fraction: 0.5}}} }},
		{"storm count over smallest array", func(m *Matrix) {
			m.ArraySizes = []int{10}
			m.Faults = []FaultSpec{{Storm: &StormSpec{Count: 11}}}
		}},
		{"event module over smallest array", func(m *Matrix) {
			m.ArraySizes = []int{10}
			m.Faults = []FaultSpec{{Events: []EventSpec{{TimeS: 1, Module: 10, To: "open"}}}}
		}},
		{"bad health", func(m *Matrix) { m.Faults = []FaultSpec{{Events: []EventSpec{{TimeS: 1, Module: 0, To: "melted"}}}} }},
		{"negative event time", func(m *Matrix) { m.Faults = []FaultSpec{{Events: []EventSpec{{TimeS: -1, Module: 0, To: "open"}}}} }},
		{"inverted converter band", func(m *Matrix) { m.ConverterInputV = &[2]float64{24, 8} }},
		{"zero converter band", func(m *Matrix) { m.ConverterInputV = &[2]float64{0, 0} }},
		{"nan converter band", func(m *Matrix) { m.ConverterInputV = &[2]float64{math.NaN(), 24} }},
		{"inf converter band", func(m *Matrix) { m.ConverterInputV = &[2]float64{8, math.Inf(1)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mut(m)
			if _, err := m.Normalize(); err == nil {
				t.Fatalf("Normalize accepted %s", tc.name)
			} else if !errors.Is(err, ErrSpec) {
				t.Fatalf("error does not wrap ErrSpec: %v", err)
			}
		})
	}
}

func TestExpandStableAndSeeded(t *testing.T) {
	m := testMatrix()
	counts, err := m.Counts()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != counts.Cells {
		t.Fatalf("Counts predicted %d cells, Expand built %d", counts.Cells, len(ex.Cells))
	}
	if len(ex.Jobs) != counts.Jobs {
		t.Fatalf("Counts predicted %d jobs, Expand built %d", counts.Jobs, len(ex.Jobs))
	}
	if len(ex.CellOf) != len(ex.Jobs) {
		t.Fatalf("CellOf length %d != jobs %d", len(ex.CellOf), len(ex.Jobs))
	}
	seeds := map[int64]string{}
	coords := map[string]bool{}
	for i, c := range ex.Cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if i > 0 && !(ex.Cells[i-1].Coord < c.Coord) {
			t.Fatalf("cells not in coordinate order at %d: %q !< %q", i, ex.Cells[i-1].Coord, c.Coord)
		}
		if coords[c.Coord] {
			t.Fatalf("duplicate coordinate %q", c.Coord)
		}
		coords[c.Coord] = true
		if c.Seed < 0 {
			t.Fatalf("cell %d has negative seed %d", i, c.Seed)
		}
		if prev, dup := seeds[c.Seed]; dup {
			t.Fatalf("cells %q and %q share seed %d", prev, c.Coord, c.Seed)
		}
		seeds[c.Seed] = c.Coord
		if c.Seed != seedFor(7, c.Coord) {
			t.Fatalf("cell %d seed is not derived from its coordinate", i)
		}
	}
	// Every job of one array size must share a plant, and every plant
	// one radiator — the one-plant-per-size contract.
	sysBySize := map[int]any{}
	for _, j := range ex.Jobs {
		if prev, ok := sysBySize[j.Sys.Modules]; ok && prev != j.Sys {
			t.Fatalf("two distinct systems for %d modules", j.Sys.Modules)
		}
		sysBySize[j.Sys.Modules] = j.Sys
		if j.Sys.Radiator != ex.Jobs[0].Sys.Radiator {
			t.Fatal("jobs do not share one radiator")
		}
	}
}

// TestExpandStormsPairedAcrossSchemes: a storm is drawn from the cell
// coordinate without its scheme, so every scheme at one grid point
// faces the same failure schedule (a fault study's comparison is
// paired), while distinct grid points draw distinct schedules.
func TestExpandStormsPairedAcrossSchemes(t *testing.T) {
	ex, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		cycle, fault     string
		ambient, coolant float64
		paths, modules   int
		mal              float64
	}
	plans := map[point]string{}
	schedules := map[string]bool{}
	for j, job := range ex.Jobs {
		if job.Opts.FaultPlan == nil {
			continue
		}
		c := ex.Cells[ex.CellOf[j]]
		pt := point{c.Cycle, c.Fault, c.AmbientC, c.CoolantOffsetC, c.Paths, c.Modules, c.Maldistribution}
		plan := fmt.Sprintf("%v", *job.Opts.FaultPlan)
		if prev, ok := plans[pt]; ok && prev != plan {
			t.Fatalf("schemes at %+v face different storms:\n%s\n%s", pt, prev, plan)
		}
		plans[pt] = plan
		schedules[plan] = true
	}
	if len(plans) == 0 || len(schedules) != len(plans) {
		t.Fatalf("%d storm grid points drew %d distinct schedules", len(plans), len(schedules))
	}
}

// TestExpandPermutationInvariant is the property the subsystem exists
// to guarantee: shuffling every axis's declaration order changes
// nothing about the compiled expansion.
func TestExpandPermutationInvariant(t *testing.T) {
	ref, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		m := testMatrix()
		rng.Shuffle(len(m.Cycles), func(i, j int) { m.Cycles[i], m.Cycles[j] = m.Cycles[j], m.Cycles[i] })
		rng.Shuffle(len(m.Schemes), func(i, j int) { m.Schemes[i], m.Schemes[j] = m.Schemes[j], m.Schemes[i] })
		rng.Shuffle(len(m.Ambients), func(i, j int) { m.Ambients[i], m.Ambients[j] = m.Ambients[j], m.Ambients[i] })
		rng.Shuffle(len(m.Flows), func(i, j int) { m.Flows[i], m.Flows[j] = m.Flows[j], m.Flows[i] })
		rng.Shuffle(len(m.Faults), func(i, j int) { m.Faults[i], m.Faults[j] = m.Faults[j], m.Faults[i] })
		rng.Shuffle(len(m.ArraySizes), func(i, j int) { m.ArraySizes[i], m.ArraySizes[j] = m.ArraySizes[j], m.ArraySizes[i] })
		ex, err := m.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Cells) != len(ref.Cells) {
			t.Fatalf("trial %d: %d cells vs %d", trial, len(ex.Cells), len(ref.Cells))
		}
		for i := range ex.Cells {
			if !reflect.DeepEqual(ex.Cells[i], ref.Cells[i]) {
				t.Fatalf("trial %d: cell %d differs:\n%+v\n%+v", trial, i, ex.Cells[i], ref.Cells[i])
			}
		}
		for i := range ex.Jobs {
			if ex.Jobs[i].Opts.Seed != ref.Jobs[i].Opts.Seed {
				t.Fatalf("trial %d: job %d seed differs", trial, i)
			}
		}
		if !reflect.DeepEqual(ex.CellOf, ref.CellOf) {
			t.Fatalf("trial %d: CellOf differs", trial)
		}
	}
}

func TestSubset(t *testing.T) {
	ex, err := testMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	pick := []int{3, 0, len(ex.Cells) - 1}
	sub, err := ex.Subset(pick)
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Cells) != len(pick) {
		t.Fatalf("subset has %d cells, want %d", len(sub.Cells), len(pick))
	}
	for i, ci := range pick {
		if sub.Cells[i].Coord != ex.Cells[ci].Coord {
			t.Fatalf("subset cell %d is %q, want %q", i, sub.Cells[i].Coord, ex.Cells[ci].Coord)
		}
		if sub.Cells[i].Index != ci {
			t.Fatalf("subset cell %d lost its original index: %d vs %d", i, sub.Cells[i].Index, ci)
		}
	}
	for j, p := range sub.CellOf {
		if p < 0 || p >= len(sub.Cells) {
			t.Fatalf("subset job %d maps to out-of-range cell %d", j, p)
		}
	}
	njobs := 0
	for _, ci := range pick {
		for _, c := range ex.CellOf {
			if c == ci {
				njobs++
			}
		}
	}
	if len(sub.Jobs) != njobs {
		t.Fatalf("subset carries %d jobs, want %d", len(sub.Jobs), njobs)
	}
	if _, err := ex.Subset([]int{0, 0}); err == nil {
		t.Fatal("Subset accepted a duplicate cell")
	}
	if _, err := ex.Subset([]int{len(ex.Cells)}); err == nil {
		t.Fatal("Subset accepted an out-of-range cell")
	}
}

// TestSeedForStability pins the derivation so a refactor cannot
// silently reseed every matrix ever written.
func TestSeedForStability(t *testing.T) {
	got := seedFor(7, "cy=name=nedc;sch=INOR")
	if got != seedFor(7, "cy=name=nedc;sch=INOR") {
		t.Fatal("seedFor is not deterministic")
	}
	if got == seedFor(8, "cy=name=nedc;sch=INOR") {
		t.Fatal("base seed does not enter the derivation")
	}
	if got == seedFor(7, "cy=name=nedc;sch=DNOR") {
		t.Fatal("coordinate does not enter the derivation")
	}
}

func TestMatrixJSONRoundTrip(t *testing.T) {
	n, err := testMatrix().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	n2, err := back.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n, n2) {
		t.Fatalf("JSON round trip is not the identity:\n%+v\n%+v", n, n2)
	}
}

func TestCSVCycleAndTimedFaults(t *testing.T) {
	csv := "time_s,speed_kph\n0,0\n10,30\n20,50\n30,0\n"
	m := &Matrix{
		Cycles: []CycleSpec{{CSV: csv}},
		Faults: []FaultSpec{{Events: []EventSpec{
			{TimeS: 10, Module: 2, To: "OPEN"},
			{TimeS: 5, Module: 1, To: "short"},
		}}},
		Schemes:    []string{"INOR"},
		ArraySizes: []int{10},
	}
	n, err := m.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(n.Cycles[0].Label, "csv:") {
		t.Fatalf("CSV cycle label %q", n.Cycles[0].Label)
	}
	ev := n.Faults[0].Events
	if ev[0].TimeS != 5 || ev[1].TimeS != 10 {
		t.Fatalf("events not canonically sorted: %+v", ev)
	}
	if ev[1].To != "open" {
		t.Fatalf("health spelling not canonicalized: %+v", ev[1])
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != 1 || ex.Cells[0].DurationS != 30 {
		t.Fatalf("CSV cell: %+v", ex.Cells)
	}
}

// TestCycleSweep pins the cycle × scheme grid: with nothing named it
// spans every registered cycle (the six standard ones at least) under
// the four schemes in registry order, every cell within its cap; a cap
// reaching the longest selected cycle is dropped, and a negative cap
// or an unknown cycle is a spec error.
func TestCycleSweep(t *testing.T) {
	spec := CycleSweep(nil, nil, 30)
	m, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	wantSchemes := []string{"Baseline", "INOR", "DNOR", "EHTR"}
	if !reflect.DeepEqual(m.Schemes, wantSchemes) {
		t.Fatalf("schemes = %v, want %v", m.Schemes, wantSchemes)
	}
	ex, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(m.Cycles) * len(wantSchemes); len(ex.Cells) != want || len(ex.Jobs) != want {
		t.Fatalf("%d cells, %d jobs, want %d of each", len(ex.Cells), len(ex.Jobs), want)
	}
	seen := map[string]int{}
	for _, c := range ex.Cells {
		seen[c.Cycle]++
		if c.DurationS <= 0 || c.DurationS > 30 {
			t.Errorf("%s/%s: duration %g outside the 30 s cap", c.Cycle, c.Scheme, c.DurationS)
		}
	}
	for _, name := range []string{"nedc", "wltc", "ftp75", "hwfet", "us06", "delivery"} {
		if seen[name] != len(wantSchemes) {
			t.Errorf("cycle %s has %d cells, want %d", name, seen[name], len(wantSchemes))
		}
	}

	if got := CycleSweep([]string{"nedc", "us06"}, []string{"dnor"}, 1e6); got.MaxDurationS != 0 {
		t.Errorf("cap past every selected cycle kept as %g", got.MaxDurationS)
	}
	for name, bad := range map[string]Matrix{
		"negative cap":  CycleSweep([]string{"nedc"}, nil, -1),
		"unknown cycle": CycleSweep([]string{"nope"}, nil, 0),
	} {
		if _, err := bad.Normalize(); !errors.Is(err, ErrSpec) {
			t.Errorf("%s: Normalize err = %v, want ErrSpec", name, err)
		}
	}
}
