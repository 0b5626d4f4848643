package mppt

import (
	"math"
	"testing"

	"tegrecon/internal/converter"
)

// quadratic returns a concave P(I) with a known maximum.
func quadratic(iStar, pStar float64) PowerFunc {
	return func(i float64) float64 { return pStar - (i-iStar)*(i-iStar) }
}

func TestDefaultOptionsValid(t *testing.T) {
	if err := DefaultOptions(5).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := DefaultOptions(5)
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"zero-step", func(o *Options) { o.InitialStep = 0 }},
		{"min-above-initial", func(o *Options) { o.MinStep = 10 }},
		{"shrink-1", func(o *Options) { o.Shrink = 1 }},
		{"shrink-0", func(o *Options) { o.Shrink = 0 }},
		{"grow", func(o *Options) { o.Grow = 0.5 }},
		{"iters", func(o *Options) { o.MaxIters = 0 }},
		{"range", func(o *Options) { o.IMin = 5; o.IMax = 5 }},
	}
	for _, tc := range cases {
		o := base
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	o := DefaultOptions(5)
	o.MaxIters = 0
	if _, err := New(o); err == nil {
		t.Error("expected error")
	}
}

func TestTrackFindsQuadraticMax(t *testing.T) {
	tr, err := New(DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Track(quadratic(3.7, 50))
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.Current-3.7) > 0.02 {
		t.Errorf("current = %v, want ≈3.7", res.Current)
	}
	if math.Abs(res.Power-50) > 0.01 {
		t.Errorf("power = %v, want ≈50", res.Power)
	}
}

func TestTrackWarmStartIsFaster(t *testing.T) {
	tr, err := New(DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	cold := tr.Track(quadratic(6.1, 40))
	// Small drift of the MPP: warm restart should need far fewer
	// iterations than the cold start.
	warm := tr.Track(quadratic(6.15, 40))
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm start not faster: cold %d, warm %d", cold.Iterations, warm.Iterations)
	}
	if math.Abs(warm.Current-6.15) > 0.05 {
		t.Errorf("warm current = %v", warm.Current)
	}
}

func TestResetForcesColdStart(t *testing.T) {
	tr, err := New(DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	tr.Track(quadratic(2, 10))
	// Retune is the reset the simulator runs after every topology change.
	if err := tr.Retune(DefaultOptions(10)); err != nil {
		t.Fatal(err)
	}
	res := tr.Track(quadratic(8, 10))
	if math.Abs(res.Current-8) > 0.05 {
		t.Errorf("after reset, current = %v, want ≈8", res.Current)
	}
}

func TestTrackRespectsBounds(t *testing.T) {
	o := DefaultOptions(5)
	tr, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	// Maximum outside the range: must pin to the boundary.
	res := tr.Track(func(i float64) float64 { return i }) // increasing
	if res.Current > o.IMax+1e-12 {
		t.Errorf("current %v exceeded IMax", res.Current)
	}
	if res.Current < o.IMax-0.05 {
		t.Errorf("current %v should approach IMax", res.Current)
	}
}

func TestTrackOnTEGLikeCurve(t *testing.T) {
	// Thevenin P(I) = (Voc − I·R)·I with converter weighting — the real
	// use. Voc = 18 V, R = 6 Ω → unconstrained MPP at 1.5 A, but the
	// converter efficiency reshapes the curve slightly.
	conv := converter.LTM4607()
	voc, r := 18.0, 6.0
	f := func(i float64) float64 {
		v := voc - i*r
		return conv.OutputPower(v, v*i)
	}
	tr, err := New(DefaultOptions(voc / r))
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Track(f)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	// Exhaustive scan as ground truth.
	best, bestI := 0.0, 0.0
	for k := 0; k <= 10000; k++ {
		i := 3.0 * float64(k) / 10000
		if p := f(i); p > best {
			best, bestI = p, i
		}
	}
	if math.Abs(res.Current-bestI) > 0.02 {
		t.Errorf("current = %v, scan says %v", res.Current, bestI)
	}
	if res.Power < best*0.999 {
		t.Errorf("power = %v, scan says %v", res.Power, best)
	}
}

func TestTrackFlatFunction(t *testing.T) {
	tr, err := New(DefaultOptions(10))
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Track(func(float64) float64 { return 5 })
	if !res.Converged {
		t.Error("flat function should converge (steps shrink)")
	}
	if res.Power != 5 {
		t.Errorf("power = %v", res.Power)
	}
}

func TestTrackIterationCap(t *testing.T) {
	o := DefaultOptions(10)
	o.MaxIters = 3
	o.MinStep = 1e-12
	tr, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	res := tr.Track(quadratic(9, 10))
	if res.Iterations > 3 {
		t.Errorf("iterations %d exceed cap", res.Iterations)
	}
}

// TestRetuneMatchesNew proves a retuned tracker behaves exactly like a
// freshly constructed one: the warm-start memory is forgotten and the
// next Track converges identically.
func TestRetuneMatchesNew(t *testing.T) {
	f := func(i float64) float64 { return i * (10 - i) } // peak at 5
	reused, err := New(DefaultOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	reused.Track(f) // leave warm-start state behind
	if err := reused.Retune(DefaultOptions(12)); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(DefaultOptions(12))
	if err != nil {
		t.Fatal(err)
	}
	got, want := reused.Track(f), fresh.Track(f)
	if got != want {
		t.Fatalf("retuned track %+v, fresh track %+v", got, want)
	}
	if err := reused.Retune(Options{}); err == nil {
		t.Fatal("Retune accepted invalid options")
	}
}
