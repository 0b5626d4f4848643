package linalg

import (
	"fmt"
	"math"
)

// The helpers below build fixtures and the reference solver for the
// tests; production code needs none of them.

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: FromRows with empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			panic("linalg: FromRows with ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			out.Set(c, r, m.At(r, c))
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)·vec(%d)", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		out[r] = Dot(m.Row(r), x)
	}
	return out, nil
}

// SolveGauss solves A·x = b by Gaussian elimination with partial
// pivoting. A must be square; A and b are not modified. It returns
// ErrSingular when a pivot underflows the numerical tolerance.
func SolveGauss(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("%w: SolveGauss needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d for %dx%d system", ErrShape, len(b), n, n)
	}
	// Work on copies.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pmax := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pmax {
				pivot, pmax = r, v
			}
		}
		if pmax < 1e-300 {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := m.Row(pivot), m.Row(col)
			for i := range pr {
				pr[i], cr[i] = cr[i], pr[i]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			rrow, crow := m.Row(r), m.Row(col)
			for c := col + 1; c < n; c++ {
				rrow[c] -= f * crow[c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		row := m.Row(r)
		for c := r + 1; c < n; c++ {
			s -= row[c] * x[c]
		}
		x[r] = s / row[r]
	}
	return x, nil
}

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, av := range a {
		s += av * b[i]
	}
	return s
}
