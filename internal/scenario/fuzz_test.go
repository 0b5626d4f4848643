package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// matrixSeeds is the seed corpus both matrix fuzzers start from: the
// example spec, a grid, a translated sweep, CSV and fault axes, a swept
// ambient range, DNOR variants on the scheme axis, a converter band and
// a few malformed specs.
func matrixSeeds(f *testing.F) []string {
	example, err := os.ReadFile("../../examples/matrix/spec.json")
	if err != nil {
		f.Fatal(err)
	}
	return []string{
		string(example),
		// grid-shaped: 2 synthetic cycles × 4 schemes × 2 ambients ×
		// 2 flow splits at N=100.
		`{"version":1,"name":"grid","seed":5,"max_duration_s":20,
		  "cycles":[{"synth":{"profile":"urban","seed":1,"duration_s":20}},
		            {"synth":{"profile":"highway","seed":2,"duration_s":20}}],
		  "schemes":["baseline","inor","dnor","ehtr"],
		  "ambients":[{"ambient_c":15},{"ambient_c":30}],
		  "flows":[{"paths":1},{"paths":2,"maldistribution":0.3}],
		  "array_sizes":[100]}`,
		// a translated /v1/sweeps request: named cycles, one array size.
		`{"seed":7,"max_duration_s":20,"cycles":[{"name":"wltc"},{"name":"nedc"}],
		  "schemes":["baseline","inor","dnor","ehtr"],"array_sizes":[100]}`,
		`{"cycles":[{"csv":"time_s,speed_kph\n0,0\n1,10\n2,20\n"}],
		  "faults":[{"events":[{"time_s":1,"module":3,"to":"open"}]},{"storm":{"fraction":0.1,"seed_offset":2}}]}`,
		`{"cycles":[{"name":"nedc"}],"ambients":[{"from_c":-40,"to_c":55,"step_c":0.5,"coolant_offset_c":-5}]}`,
		// a step so small the point count overflows int: must be
		// refused, not collapsed to an empty axis.
		`{"cycles":[{"name":"nedc"}],"ambients":[{"from_c":0,"to_c":10,"step_c":1e-300}]}`,
		// DNOR variants: out-of-order keys, a default-valued key and
		// every predictor, under a non-default matrix horizon.
		`{"horizon_ticks":6,"max_duration_s":10,"cycles":[{"name":"nedc"}],"array_sizes":[10],
		  "schemes":["dnor:margin_j=0.50,predictor=ORACLE,horizon=4","DNOR:horizon=6,margin_j=1e-3",
		             "DNOR:predictor=bpnn","DNOR:predictor=svr","DNOR:predictor=holt","DNOR:predictor=hold","inor"]}`,
		`{"cycles":[{"name":"nedc"}],"schemes":["DNOR:horizon=0","INOR:horizon=8","DNOR:margin_j=NaN","DNOR:horizon=2,horizon=2"]}`,
		// a narrowed converter input band, a matrix-level run parameter.
		`{"max_duration_s":10,"cycles":[{"name":"nedc"}],"schemes":["inor"],"array_sizes":[20],"converter_input_v":[8,24]}`,
		// caps at and under one 0.5 s trace sample, and a CSV log
		// shorter than one.
		`{"cycles":[{"name":"wltc"}],"schemes":["inor"],"max_duration_s":0.5,"tick_s":0.25}`,
		`{"cycles":[{"name":"wltc"},{"synth":{"dt_s":0.25}}],"schemes":["inor"],"max_duration_s":0.3,"tick_s":0.25}`,
		`{"cycles":[{"csv":"time_s,speed_kph\n0,0\n0.2,1\n"}],"schemes":["inor"],"tick_s":0.1}`,
		`{}`,
		`{"cycles":[{"name":"nedc","csv":"x"}]}`,
	}
}

// FuzzMatrixNormalize feeds arbitrary JSON specs to Normalize, the
// admission step every /v1/matrix and /v1/sweeps request reaches from
// outside the process. Nothing may panic; an accepted spec must be a
// fixed point (normalizing it again changes no byte of its JSON) and
// must size without error.
func FuzzMatrixNormalize(f *testing.F) {
	for _, s := range matrixSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Matrix
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		n, err := m.Normalize()
		if err != nil {
			return
		}
		again, err := n.Normalize()
		if err != nil {
			t.Fatalf("normalized spec rejected on renormalization: %v", err)
		}
		b1, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalize is not idempotent:\nonce  %s\ntwice %s", b1, b2)
		}
		if _, err := n.Counts(); err != nil {
			t.Fatalf("Counts of a normalized spec: %v", err)
		}
	})
}

// FuzzMatrixExpand compiles small accepted specs and cuts shards out of
// them. Expand must not panic and must yield the cell and job counts
// Counts promised. Subset, which POST /v1/shards feeds with untrusted
// cell lists, must not panic either: it refuses an out-of-range or
// repeated index and otherwise keeps each cell's full-grid Index.
func FuzzMatrixExpand(f *testing.F) {
	for i, s := range matrixSeeds(f) {
		f.Add([]byte(s), []byte{0, byte(i), 1, 255, 3})
	}
	f.Fuzz(func(t *testing.T, data, picks []byte) {
		var m Matrix
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		n, err := m.Normalize()
		if err != nil {
			return
		}
		c, err := n.Counts()
		if err != nil {
			t.Fatalf("Counts of a normalizable spec: %v", err)
		}
		if c.Cells > 64 || c.Ticks > 1e5 {
			return
		}
		ex, err := m.Expand()
		if err != nil {
			t.Fatalf("Expand of a spec Counts sized at %+v: %v", c, err)
		}
		if len(ex.Cells) != c.Cells || len(ex.Jobs) != c.Jobs || len(ex.CellOf) != len(ex.Jobs) {
			t.Fatalf("expanded %d cells and %d jobs, Counts said %d and %d", len(ex.Cells), len(ex.Jobs), c.Cells, c.Jobs)
		}

		// Each pick byte is a signed index, so the list reaches past
		// both ends of the grid and repeats entries.
		idx := make([]int, len(picks))
		seen := map[int]bool{}
		valid := true
		for k, b := range picks {
			idx[k] = int(int8(b))
			if idx[k] < 0 || idx[k] >= len(ex.Cells) || seen[idx[k]] {
				valid = false
			}
			seen[idx[k]] = true
		}
		sub, err := ex.Subset(idx)
		if !valid {
			if err == nil {
				t.Fatalf("Subset(%v) of %d cells accepted", idx, len(ex.Cells))
			}
			return
		}
		if err != nil {
			t.Fatalf("Subset(%v) of %d cells: %v", idx, len(ex.Cells), err)
		}
		if len(sub.Cells) != len(idx) {
			t.Fatalf("Subset(%v) kept %d cells", idx, len(sub.Cells))
		}
		for k, ci := range idx {
			if sub.Cells[k].Index != ex.Cells[ci].Index || sub.Cells[k].Coord != ex.Cells[ci].Coord {
				t.Fatalf("subset cell %d is %d %q, want %d %q", k, sub.Cells[k].Index, sub.Cells[k].Coord, ex.Cells[ci].Index, ex.Cells[ci].Coord)
			}
		}
		if len(sub.CellOf) != len(sub.Jobs) {
			t.Fatalf("subset has %d jobs and %d cell links", len(sub.Jobs), len(sub.CellOf))
		}
		for _, p := range sub.CellOf {
			if p < 0 || p >= len(sub.Cells) {
				t.Fatalf("subset job links to cell %d of %d", p, len(sub.Cells))
			}
		}
	})
}
