package predict

import (
	"fmt"

	"tegrecon/internal/linalg"
)

// MLR is the multiple-linear-regression predictor of Section IV — the
// method the paper selects for DNOR because it is both the most accurate
// and the cheapest (O(N) per prediction). One ridge-regularised linear
// model over the pooled AR features of all modules is refit on the
// sliding window at every observation.
type MLR struct {
	order      int     // AR order p (lagged samples per feature vector)
	window     int     // sliding-window length in ticks
	ridge      float64 // ridge regularisation λ
	maxSamples int     // training subsample cap (strided)
	hist       *History
	coef       []float64 // order weights followed by intercept
	fresh      bool      // coefficients reflect the current history
}

// MLROptions tunes the predictor.
type MLROptions struct {
	// Order is the number of lagged samples per module, ≥ 1.
	Order int
	// Window is the history length used for fitting, > Order+1.
	Window int
	// Ridge is the regularisation strength; small positive values keep
	// the near-collinear temperature lags well conditioned.
	Ridge float64
	// MaxSamples caps the pooled training set per fit via strided
	// subsampling; 0 uses the default (256). The cap is what keeps MLR
	// the fastest of the three methods regardless of module count.
	MaxSamples int
}

// DefaultMLROptions matches the configuration used for the paper
// experiments: 4 lags over a 60-tick (30 s at 0.5 s) window.
func DefaultMLROptions() MLROptions {
	return MLROptions{Order: 4, Window: 60, Ridge: 1e-6, MaxSamples: 256}
}

// NewMLR constructs the predictor.
func NewMLR(opts MLROptions) (*MLR, error) {
	if opts.Order < 1 {
		return nil, fmt.Errorf("predict: MLR order %d < 1", opts.Order)
	}
	if opts.Window <= opts.Order+1 {
		return nil, fmt.Errorf("predict: MLR window %d too small for order %d", opts.Window, opts.Order)
	}
	if opts.Ridge < 0 {
		return nil, fmt.Errorf("predict: negative ridge %g", opts.Ridge)
	}
	if opts.MaxSamples < 0 {
		return nil, fmt.Errorf("predict: negative sample cap %d", opts.MaxSamples)
	}
	if opts.MaxSamples == 0 {
		opts.MaxSamples = 256
	}
	if opts.MaxSamples <= opts.Order+1 {
		return nil, fmt.Errorf("predict: sample cap %d too small for order %d", opts.MaxSamples, opts.Order)
	}
	h, err := NewHistory(opts.Window)
	if err != nil {
		return nil, err
	}
	return &MLR{
		order:      opts.Order,
		window:     opts.Window,
		ridge:      opts.Ridge,
		maxSamples: opts.MaxSamples,
		hist:       h,
	}, nil
}

// Name implements Predictor.
func (m *MLR) Name() string { return "MLR" }

// Observe implements Predictor.
func (m *MLR) Observe(temps []float64) error {
	if err := m.hist.Push(temps); err != nil {
		return err
	}
	m.fresh = false
	return nil
}

// Ready implements Predictor: at least order+2 ticks are needed for a
// non-degenerate fit.
func (m *MLR) Ready() bool { return m.hist.Len() >= m.order+2 }

// fit refits the pooled model on the current window.
func (m *MLR) fit() error {
	total := arCount(m.hist, m.order)
	if total == 0 {
		return ErrNotReady
	}
	// Strided subsample keeps coverage across ticks and modules (the
	// pooled dataset interleaves modules within each tick); only the
	// kept pairs are built, straight into the regression matrix.
	stride := 1
	if total > m.maxSamples {
		stride = (total + m.maxSamples - 1) / m.maxSamples
	}
	rows := (total + stride - 1) / stride
	width := m.order + 1
	a := linalg.NewMatrix(rows, width)
	b := make([]float64, rows)
	arRowsInto(m.hist, m.order, stride, a.Data, width, b)
	for r := 0; r < rows; r++ {
		a.Data[r*width+m.order] = 1 // intercept
	}
	coef, err := linalg.RidgeLeastSquares(a, b, m.ridge)
	if err != nil {
		return fmt.Errorf("predict: MLR fit: %w", err)
	}
	m.coef = coef
	m.fresh = true
	return nil
}

// Predict implements Predictor.
func (m *MLR) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !m.Ready() {
		return nil, ErrNotReady
	}
	if !m.fresh {
		if err := m.fit(); err != nil {
			return nil, err
		}
	}
	coef := m.coef
	step := func(x []float64) float64 {
		y := coef[len(coef)-1]
		for k, v := range x {
			y += coef[k] * v
		}
		return y
	}
	return rollForward(m.hist, m.order, horizon, step), nil
}

// CaptureHistory implements HistoryCarrier: the retained sliding
// window, oldest first, as caller-owned copies.
func (m *MLR) CaptureHistory() [][]float64 {
	out := make([][]float64, m.hist.Len())
	for i := range out {
		out[i] = append([]float64(nil), m.hist.Tick(i)...)
	}
	return out
}

// RestoreHistory implements HistoryCarrier: replay a captured window
// into this instance. The coefficients are left stale on purpose — the
// next Predict refits them from the restored window, which is
// deterministic and therefore reproduces the pre-capture model exactly.
func (m *MLR) RestoreHistory(window [][]float64) error {
	for _, row := range window {
		if err := m.Observe(row); err != nil {
			return err
		}
	}
	return nil
}
