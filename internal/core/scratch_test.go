package core

import (
	"math"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/teg"
)

func scratchTestTemps(n int, phase float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 38 + 54*math.Exp(-3*float64(i)/float64(n)) + 5*math.Sin(phase+float64(i)/7)
	}
	return out
}

// TestScratchDecidersMatchFreshControllers proves the reusable work
// arrays are invisible to the decisions: a controller stepped across
// many differing temperature distributions produces exactly the
// configurations a fresh controller produces for each distribution in
// isolation.
func TestScratchDecidersMatchFreshControllers(t *testing.T) {
	eval, err := NewEvaluator(teg.TGM199, converter.LTM4607())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		build func() (Controller, error)
	}{
		{"INOR", func() (Controller, error) { return NewINOR(eval) }},
		{"EHTR", func() (Controller, error) { return NewEHTR(eval) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reused, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			for tick := 0; tick < 12; tick++ {
				temps := scratchTestTemps(60, float64(tick))
				got, err := reused.Decide(tick, temps, 25)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Decide(tick, temps, 25)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Config.Equal(want.Config) {
					t.Fatalf("tick %d: reused %s decided %s, fresh decided %s", tick, tc.name, got.Config, want.Config)
				}
				if got.Expected != want.Expected {
					t.Fatalf("tick %d: expected power %g vs %g", tick, got.Expected, want.Expected)
				}
			}
		})
	}
}

// TestDecisionConfigAliasingContract documents the Decision.Config
// lifetime: the config returned by one Decide may be rewritten in place
// by the next, so callers must copy what they keep. The test holds the
// first decision's Starts slice across a second Decide over different
// temperatures and checks the copy-vs-alias behaviour explicitly.
func TestDecisionConfigAliasingContract(t *testing.T) {
	eval, err := NewEvaluator(teg.TGM199, converter.LTM4607())
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewINOR(eval)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := c.Decide(0, scratchTestTemps(60, 0), 25)
	if err != nil {
		t.Fatal(err)
	}
	// Copying the starts is the supported way to keep a config across
	// periods.
	kept := array.Config{N: d1.Config.N, Starts: append([]int(nil), d1.Config.Starts...)}
	d2, err := c.Decide(1, scratchTestTemps(60, 2.5), 25)
	if err != nil {
		t.Fatal(err)
	}
	// The second decision must be internally consistent regardless of
	// what happened to the first decision's backing storage.
	if err := d2.Config.Validate(); err != nil {
		t.Fatalf("second decision invalid: %v", err)
	}
	if err := kept.Validate(); err != nil {
		t.Fatalf("copied first decision corrupted: %v", err)
	}
}
