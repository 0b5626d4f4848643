package linalg

import (
	"fmt"
	"math"
)

// QR holds a Householder QR factorisation of an m×n matrix with m ≥ n.
type QR struct {
	qr   *Matrix   // packed factors: R in upper triangle, v's below
	beta []float64 // Householder scalars
}

// FactorQR computes the Householder QR factorisation of a (m ≥ n
// required). a is not modified.
func FactorQR(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("%w: QR needs rows >= cols, got %dx%d", ErrShape, m, n)
	}
	f := a.Clone()
	beta := make([]float64, n)
	col := make([]float64, m)
	for k := 0; k < n; k++ {
		// Extract column k below the diagonal.
		for i := k; i < m; i++ {
			col[i] = f.At(i, k)
		}
		alpha := Norm2(col[k:m])
		if alpha == 0 {
			beta[k] = 0
			continue
		}
		if col[k] > 0 {
			alpha = -alpha
		}
		// v = x - alpha·e1, normalised so v[0] = 1.
		v0 := col[k] - alpha
		beta[k] = -v0 / alpha // == v0² / (v0²+rest²) scaled form; see below
		// Store R diagonal and v (with implicit v[0]=1) in place.
		f.Set(k, k, alpha)
		for i := k + 1; i < m; i++ {
			f.Set(i, k, col[i]/v0)
		}
		// Apply H = I - beta·v·vᵀ to the trailing columns.
		for c := k + 1; c < n; c++ {
			s := f.At(k, c)
			for i := k + 1; i < m; i++ {
				s += f.At(i, k) * f.At(i, c)
			}
			s *= beta[k]
			f.Set(k, c, f.At(k, c)-s)
			for i := k + 1; i < m; i++ {
				f.Set(i, c, f.At(i, c)-s*f.At(i, k))
			}
		}
	}
	return &QR{qr: f, beta: beta}, nil
}

// Solve computes the least-squares solution x minimising ‖A·x − b‖₂ for
// the factored A. It returns ErrSingular if R has a vanishing diagonal.
func (q *QR) Solve(b []float64) ([]float64, error) {
	m, n := q.qr.Rows, q.qr.Cols
	if len(b) != m {
		return nil, fmt.Errorf("%w: rhs length %d for %d-row factorisation", ErrShape, len(b), m)
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Qᵀ to y.
	for k := 0; k < n; k++ {
		if q.beta[k] == 0 {
			continue
		}
		s := y[k]
		for i := k + 1; i < m; i++ {
			s += q.qr.At(i, k) * y[i]
		}
		s *= q.beta[k]
		y[k] -= s
		for i := k + 1; i < m; i++ {
			y[i] -= s * q.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n]. A diagonal entry negligible relative
	// to the largest one signals rank deficiency.
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if v := math.Abs(q.qr.At(i, i)); v > maxDiag {
			maxDiag = v
		}
	}
	tol := 1e-12 * maxDiag
	if tol < 1e-300 {
		tol = 1e-300
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		d := q.qr.At(r, r)
		if math.Abs(d) < tol {
			return nil, ErrSingular
		}
		s := y[r]
		for c := r + 1; c < n; c++ {
			s -= q.qr.At(r, c) * x[c]
		}
		x[r] = s / d
	}
	return x, nil
}

// LeastSquares solves min ‖A·x − b‖₂ via QR.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	q, err := FactorQR(a)
	if err != nil {
		return nil, err
	}
	return q.Solve(b)
}

// RidgeLeastSquares solves min ‖A·x − b‖₂² + λ‖x‖₂² by augmenting the
// system with √λ·I rows, which keeps the QR path and its numerical
// robustness. λ must be non-negative.
func RidgeLeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge parameter %g", lambda)
	}
	if lambda == 0 {
		return LeastSquares(a, b)
	}
	m, n := a.Rows, a.Cols
	aug := NewMatrix(m+n, n)
	for r := 0; r < m; r++ {
		copy(aug.Row(r), a.Row(r))
	}
	s := math.Sqrt(lambda)
	for i := 0; i < n; i++ {
		aug.Set(m+i, i, s)
	}
	rhs := make([]float64, m+n)
	copy(rhs, b)
	return LeastSquares(aug, rhs)
}
