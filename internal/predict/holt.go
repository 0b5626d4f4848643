package predict

import "fmt"

// Holt is double (trend-corrected) exponential smoothing, the classical
// short-horizon forecaster, maintained independently per module:
//
//	level ← α·y + (1−α)·(level + trend)
//	trend ← β·(level − level₋₁) + (1−β)·trend
//	ŷ(t+h) = level + h·trend
//
// It is an extension beyond the paper's three methods: a useful middle
// ground between the Hold persistence baseline (Holt with β=0, α=1) and
// the fitted regressors, at O(N) per observation with no training
// window at all.
type Holt struct {
	alpha, beta float64
	level       []float64
	trend       []float64
	seen        int
}

// HoltOptions tunes the smoother.
type HoltOptions struct {
	// Alpha is the level smoothing factor in (0, 1].
	Alpha float64
	// Beta is the trend smoothing factor in [0, 1].
	Beta float64
}

// DefaultHoltOptions suits the slow radiator dynamics: heavy level
// smoothing with a gently adapting trend.
func DefaultHoltOptions() HoltOptions { return HoltOptions{Alpha: 0.7, Beta: 0.15} }

// NewHolt constructs the predictor.
func NewHolt(opts HoltOptions) (*Holt, error) {
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		return nil, fmt.Errorf("predict: Holt alpha %g outside (0,1]", opts.Alpha)
	}
	if opts.Beta < 0 || opts.Beta > 1 {
		return nil, fmt.Errorf("predict: Holt beta %g outside [0,1]", opts.Beta)
	}
	return &Holt{alpha: opts.Alpha, beta: opts.Beta}, nil
}

// Name implements Predictor.
func (h *Holt) Name() string { return "Holt" }

// Observe implements Predictor.
func (h *Holt) Observe(temps []float64) error {
	if len(temps) == 0 {
		return fmt.Errorf("predict: empty temperature sample")
	}
	if h.level == nil {
		h.level = append([]float64(nil), temps...)
		h.trend = make([]float64, len(temps))
		h.seen = 1
		return nil
	}
	if len(temps) != len(h.level) {
		return fmt.Errorf("predict: sample with %d modules after %d", len(temps), len(h.level))
	}
	for i, y := range temps {
		prev := h.level[i]
		h.level[i] = h.alpha*y + (1-h.alpha)*(prev+h.trend[i])
		h.trend[i] = h.beta*(h.level[i]-prev) + (1-h.beta)*h.trend[i]
	}
	h.seen++
	return nil
}

// Reset implements Predictor.
func (h *Holt) Reset() { h.level, h.trend, h.seen = nil, nil, 0 }

// Ready implements Predictor: two observations pin down level and trend.
func (h *Holt) Ready() bool { return h.seen >= 2 }

// Work implements Predictor: a level and a trend per module and
// Observe, one value per module and forecast step.
func (h *Holt) Work(horizon int) (observe, predict int64) {
	return int64(2 * len(h.level)), int64(horizon * len(h.level))
}

// Predict implements Predictor.
func (h *Holt) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !h.Ready() {
		return nil, ErrNotReady
	}
	out := make([][]float64, horizon)
	for step := 0; step < horizon; step++ {
		row := make([]float64, len(h.level))
		for i := range row {
			row[i] = h.level[i] + float64(step+1)*h.trend[i]
		}
		out[step] = row
	}
	return out, nil
}
