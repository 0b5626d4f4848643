package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCToKKnownPoints(t *testing.T) {
	cases := []struct{ c, k float64 }{
		{0, 273.15},
		{100, 373.15},
		{-273.15, 0},
		{25, 298.15},
	}
	for _, tc := range cases {
		if got := CToK(tc.c); math.Abs(got-tc.k) > 1e-12 {
			t.Errorf("CToK(%v) = %v, want %v", tc.c, got, tc.k)
		}
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestClampPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for lo > hi")
		}
	}()
	Clamp(1, 10, 0)
}

func TestClampProperty(t *testing.T) {
	f := func(v, a, b float64) bool {
		if math.IsNaN(v) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(v, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGoldenMaxParabola(t *testing.T) {
	// f(x) = -(x-3)² + 7 has max 7 at x=3.
	f := func(x float64) float64 { return -(x-3)*(x-3) + 7 }
	x, fx := GoldenMax(f, -10, 10, 1e-9)
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("argmax = %v, want 3", x)
	}
	if math.Abs(fx-7) > 1e-9 {
		t.Errorf("max = %v, want 7", fx)
	}
}

func TestGoldenMaxSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return -x * x }
	x, _ := GoldenMax(f, 5, -5, 1e-9)
	if math.Abs(x) > 1e-6 {
		t.Errorf("argmax = %v, want 0", x)
	}
}

func TestGoldenMaxEdgeMaximum(t *testing.T) {
	// Monotone increasing: max at right edge.
	f := func(x float64) float64 { return x }
	x, _ := GoldenMax(f, 0, 1, 1e-9)
	if math.Abs(x-1) > 1e-4 {
		t.Errorf("argmax = %v, want 1", x)
	}
}
