package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatalf("get/set broken: %v", m)
	}
	if got := m.Row(1); got[2] != 5 {
		t.Errorf("Row view: %v", got)
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on zero dims")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("shape %dx%d", mt.Rows, mt.Cols)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c) != mt.At(c, r) {
				t.Fatalf("transpose mismatch at %d,%d", r, c)
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v", got)
	}
	// Overflow guard: naive sum of squares would overflow.
	big := []float64{1e200, 1e200}
	if got := Norm2(big); math.IsInf(got, 0) || math.Abs(got-1e200*math.Sqrt2) > 1e186 {
		t.Errorf("Norm2 overflow guard failed: %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v", got)
	}
}

func TestSolveGaussKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveGauss(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveGaussSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := SolveGauss(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestSolveGaussNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := SolveGauss(a, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestSolveGaussNeedsPivoting(t *testing.T) {
	// Zero on the initial diagonal forces a row swap.
	a := FromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveGauss(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveGaussRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal dominance guarantees non-singularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := a.MulVec(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveGauss(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestQRSolveSquare(t *testing.T) {
	a := FromRows([][]float64{
		{4, -2, 1},
		{-2, 4, -2},
		{1, -2, 4},
	})
	want := []float64{1, -2, 3}
	b, _ := a.MulVec(want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 exactly through noiseless points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(len(xs), 2)
	b := make([]float64, len(xs))
	for i, x := range xs {
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-1) > 1e-10 {
		t.Errorf("coef = %v, want [2 1]", coef)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: at the LS solution, Aᵀ(Ax − b) ≈ 0.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		m, n := 10+rng.Intn(10), 2+rng.Intn(4)
		a := NewMatrix(m, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax, _ := a.MulVec(x)
		resid := make([]float64, m)
		for i := range resid {
			resid[i] = ax[i] - b[i]
		}
		atr, _ := a.T().MulVec(resid)
		for i, v := range atr {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("trial %d: normal equations violated, Aᵀr[%d]=%v", trial, i, v)
			}
		}
	}
}

func TestQRShapeError(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestQRSolveRHSLengthError(t *testing.T) {
	q, err := FactorQR(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Solve([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestQRSingularColumn(t *testing.T) {
	// Second column identical to first → rank deficient.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(30, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 30)
	for i := range b {
		b[i] = rng.NormFloat64() * 5
	}
	x0, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	x1, err := RidgeLeastSquares(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(x1) >= Norm2(x0) {
		t.Errorf("ridge did not shrink: ‖x₁‖=%v ≥ ‖x₀‖=%v", Norm2(x1), Norm2(x0))
	}
}

func TestRidgeHandlesRankDeficiency(t *testing.T) {
	// Duplicated column is singular for OLS but fine with ridge.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	x, err := RidgeLeastSquares(a, []float64{2, 4, 6}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry: both columns identical → equal coefficients.
	if math.Abs(x[0]-x[1]) > 1e-6 {
		t.Errorf("expected symmetric split, got %v", x)
	}
}

func TestRidgeNegativeLambda(t *testing.T) {
	if _, err := RidgeLeastSquares(Identity(2), []float64{1, 2}, -1); err == nil {
		t.Error("expected error for negative lambda")
	}
}

func TestGaussVsQRAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xg, err1 := SolveGauss(a, b)
		xq, err2 := LeastSquares(a, b)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range xg {
			if math.Abs(xg[i]-xq[i]) > 1e-7*(1+math.Abs(xg[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}
