// Package stats provides the error metrics and summary statistics used to
// evaluate temperature predictors (Eq. 3 of the paper) and to report
// experiment results.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by metrics that need at least one sample.
var ErrEmpty = errors.New("stats: empty input")

// ErrLength is returned when paired inputs differ in length.
var ErrLength = errors.New("stats: length mismatch")

// MAPE returns the mean absolute percentage error between actual and
// forecast values, in percent, as defined by Eq. (3) of the paper:
//
//	M = (100/n) Σ |(Aₜ − Fₜ)/Aₜ| %
//
// Actual values equal to zero are rejected with an error because the
// metric is undefined there.
func MAPE(actual, forecast []float64) (float64, error) {
	if len(actual) != len(forecast) {
		return 0, ErrLength
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i, a := range actual {
		if a == 0 {
			return 0, errors.New("stats: MAPE undefined for zero actual value")
		}
		sum += math.Abs((a - forecast[i]) / a)
	}
	return 100 * sum / float64(len(actual)), nil
}

// APE returns the per-sample absolute percentage errors in percent.
func APE(actual, forecast []float64) ([]float64, error) {
	if len(actual) != len(forecast) {
		return nil, ErrLength
	}
	out := make([]float64, len(actual))
	for i, a := range actual {
		if a == 0 {
			return nil, errors.New("stats: APE undefined for zero actual value")
		}
		out[i] = 100 * math.Abs((a-forecast[i])/a)
	}
	return out, nil
}

// MaxAPE returns the maximum absolute percentage error in percent.
func MaxAPE(actual, forecast []float64) (float64, error) {
	apes, err := APE(actual, forecast)
	if err != nil {
		return 0, err
	}
	if len(apes) == 0 {
		return 0, ErrEmpty
	}
	m := apes[0]
	for _, v := range apes[1:] {
		if v > m {
			m = v
		}
	}
	return m, nil
}

// Summary holds order statistics and moments of a sample.
type Summary struct {
	N                  int
	Mean, Std          float64
	Min, Max           float64
	P50, P95, P99      float64
	Sum                float64
	First, Last        float64
	MinIndex, MaxIndex int
}

// Summarize computes a Summary of xs. It returns ErrEmpty for an empty
// input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0], First: xs[0], Last: xs[len(xs)-1]}
	for i, v := range xs {
		s.Sum += v
		if v < s.Min {
			s.Min, s.MinIndex = v, i
		}
		if v > s.Max {
			s.Max, s.MaxIndex = v, i
		}
	}
	s.Mean = s.Sum / float64(s.N)
	varSum := 0.0
	for _, v := range xs {
		d := v - s.Mean
		varSum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varSum / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = Percentile(sorted, 50)
	s.P95 = Percentile(sorted, 95)
	s.P99 = Percentile(sorted, 99)
	return s, nil
}

// Percentile returns the p-th percentile (0–100) of an already sorted
// slice using linear interpolation between closest ranks. It panics on an
// empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
