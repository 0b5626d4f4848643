package predict

import (
	"math"
	"testing"

	"tegrecon/internal/linalg"
)

// refMLRCoef is the fit MLR used before its strided build: materialise
// every pooled AR pair, keep every stride-th, then copy the kept rows
// into the regression matrix.
func refMLRCoef(t *testing.T, h *History, order, maxSamples int, ridge float64) []float64 {
	t.Helper()
	type pair struct {
		x []float64
		y float64
	}
	var all []pair
	for end := order; end < h.Len(); end++ {
		for m := 0; m < h.Modules(); m++ {
			x := make([]float64, order)
			for k := range x {
				x[k] = h.Tick(end - order + k)[m]
			}
			all = append(all, pair{x, h.Tick(end)[m]})
		}
	}
	kept := all
	if len(all) > maxSamples {
		stride := (len(all) + maxSamples - 1) / maxSamples
		kept = nil
		for i := 0; i < len(all); i += stride {
			kept = append(kept, all[i])
		}
	}
	a := linalg.NewMatrix(len(kept), order+1)
	b := make([]float64, len(kept))
	for r, s := range kept {
		row := a.Row(r)
		copy(row, s.x)
		row[order] = 1
		b[r] = s.y
	}
	coef, err := linalg.RidgeLeastSquares(a, b, ridge)
	if err != nil {
		t.Fatal(err)
	}
	return coef
}

// TestMLRStridedBuildBitEqualsReference: building only the kept pairs
// yields the coefficients and forecasts of the build-everything-then-
// stride path, bit for bit, with the pooled total (16 ticks × 4 modules
// = 64 pairs) below, equal to and above MaxSamples — including strides
// that divide the total and one that does not.
func TestMLRStridedBuildBitEqualsReference(t *testing.T) {
	const order, ticks, modules = 4, 20, 4
	seq := synthSeq(ticks, modules, 0.2, 7)
	for _, maxSamples := range []int{100, 64, 32, 30, 9} {
		opts := MLROptions{Order: order, Window: 60, Ridge: 1e-6, MaxSamples: maxSamples}
		m, err := NewMLR(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range seq {
			if err := m.Observe(row); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Predict(3)
		if err != nil {
			t.Fatal(err)
		}
		coef := refMLRCoef(t, m.hist, order, maxSamples, opts.Ridge)
		have := m.coef
		if len(have) != len(coef) {
			t.Fatalf("MaxSamples %d: %d coefficients, want %d", maxSamples, len(have), len(coef))
		}
		for k := range coef {
			if math.Float64bits(have[k]) != math.Float64bits(coef[k]) {
				t.Fatalf("MaxSamples %d: coefficient %d = %v, want %v", maxSamples, k, have[k], coef[k])
			}
		}
		want := rollForward(m.hist, order, 3, func(x []float64) float64 {
			y := coef[len(coef)-1]
			for k, v := range x {
				y += coef[k] * v
			}
			return y
		})
		for s := range want {
			for mod := range want[s] {
				if math.Float64bits(got[s][mod]) != math.Float64bits(want[s][mod]) {
					t.Fatalf("MaxSamples %d step %d module %d: %v, want %v", maxSamples, s, mod, got[s][mod], want[s][mod])
				}
			}
		}
	}
}

// TestARRowsStrided pins the pair-index mapping of the shared builder:
// row r is pair r·stride, i.e. module (r·stride)%N at target tick
// order + (r·stride)/N.
func TestARRowsStrided(t *testing.T) {
	h, _ := NewHistory(10)
	for i := 0; i < 6; i++ {
		h.Push([]float64{float64(i), float64(10 + i), float64(20 + i)})
	}
	// 3 target ticks × 3 modules = 9 pairs; stride 2 keeps pairs 0,2,4,6,8.
	if n := arCount(h, 3); n != 9 {
		t.Fatalf("arCount = %d, want 9", n)
	}
	const width = 4
	x := make([]float64, 5*width)
	y := make([]float64, 5)
	for i := range x {
		x[i] = -1
	}
	arRowsInto(h, 3, 2, x, width, y)
	wantY := []float64{3, 23, 14, 5, 25}
	for r, w := range wantY {
		if y[r] != w || x[r*width+2] != w-1 || x[r*width+3] != -1 {
			t.Fatalf("row %d: x=%v y=%v, want target %v", r, x[r*width:(r+1)*width], y[r], w)
		}
	}
}
