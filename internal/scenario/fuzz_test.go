package scenario

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// FuzzMatrixNormalize feeds arbitrary JSON specs to Normalize, the
// admission step every /v1/matrix and /v1/sweeps request reaches from
// outside the process. Nothing may panic; an accepted spec must be a
// fixed point (normalizing it again changes no byte of its JSON) and
// must size without error.
func FuzzMatrixNormalize(f *testing.F) {
	example, err := os.ReadFile("../../examples/matrix/spec.json")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
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
		`{}`,
		`{"cycles":[{"name":"nedc","csv":"x"}]}`,
	}
	for _, s := range seeds {
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
