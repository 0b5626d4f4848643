package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAPEKnown(t *testing.T) {
	// Errors of 10% and 20% → MAPE 15%.
	got, err := MAPE([]float64{100, 100}, []float64{90, 120})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-15) > 1e-12 {
		t.Errorf("MAPE = %v, want 15", got)
	}
}

func TestMAPEPerfect(t *testing.T) {
	a := []float64{80, 85, 90}
	got, err := MAPE(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("perfect forecast MAPE = %v", got)
	}
}

func TestMAPEErrors(t *testing.T) {
	if _, err := MAPE([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrLength) {
		t.Errorf("want ErrLength, got %v", err)
	}
	if _, err := MAPE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Error("want error for zero actual")
	}
}

func TestMAPENonNegativeProperty(t *testing.T) {
	f := func(a, fc []float64) bool {
		n := len(a)
		if len(fc) < n {
			n = len(fc)
		}
		aa, ff := make([]float64, 0, n), make([]float64, 0, n)
		for i := 0; i < n; i++ {
			if a[i] == 0 || math.IsNaN(a[i]) || math.IsNaN(fc[i]) || math.IsInf(a[i], 0) || math.IsInf(fc[i], 0) {
				continue
			}
			aa = append(aa, a[i])
			ff = append(ff, fc[i])
		}
		if len(aa) == 0 {
			return true
		}
		m, err := MAPE(aa, ff)
		return err == nil && m >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAPEAndMax(t *testing.T) {
	apes, err := APE([]float64{100, 200}, []float64{110, 190})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(apes[0]-10) > 1e-12 || math.Abs(apes[1]-5) > 1e-12 {
		t.Errorf("APE = %v", apes)
	}
	mx, err := MaxAPE([]float64{100, 200}, []float64{110, 190})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mx-10) > 1e-12 {
		t.Errorf("MaxAPE = %v", mx)
	}
}

func TestMaxAPEEmpty(t *testing.T) {
	if _, err := MaxAPE(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{4, 1, 3, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.P50-3) > 1e-12 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.MinIndex != 1 || s.MaxIndex != 4 {
		t.Errorf("min/max index = %d/%d", s.MinIndex, s.MaxIndex)
	}
	// Sample std of 1..5 = sqrt(2.5).
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 || s.Min != 7 || s.Max != 7 || s.P99 != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 50); math.Abs(got-5) > 1e-12 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(sorted, 0); got != 0 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(sorted, 100); got != 10 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(sorted, -5); got != 0 {
		t.Errorf("P(-5) = %v", got)
	}
	if got := Percentile(sorted, 150); got != 10 {
		t.Errorf("P150 = %v", got)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		s, err := Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		if s.P50 < s.Min || s.P50 > s.Max || s.P95 < s.P50 || s.P99 < s.P95 {
			t.Fatalf("percentile ordering violated: %+v", s)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Percentile(nil, 50)
}
