// Package predict implements the temperature-distribution predictors of
// Section IV: multiple linear regression (MLR), a back-propagation
// neural network (BPNN) and support vector regression (SVR), all
// operating directly on the per-module radiator temperature history ("
// directly predicting the temperature distribution for all TEG modules
// using former derived temperature distributions"), plus the
// MAPE-evaluation harness behind Fig. 5.
//
// All three predictors share the same pooled auto-regressive feature
// construction: the features for module i at time t are its own last
// `order` samples, and one model is trained on the pooled samples of all
// modules (the physics — exponential decay driven by a common inlet — is
// shared, so pooling multiplies the training data by N).
package predict

import (
	"errors"
	"fmt"
	"strings"
)

// ErrNotReady is returned by Predict before enough history has been
// observed to train the model.
var ErrNotReady = errors.New("predict: not enough history")

// Predictor forecasts future temperature distributions from observed
// ones. Implementations are fed one distribution per control tick via
// Observe and asked for the next `horizon` ticks via Predict.
type Predictor interface {
	// Name identifies the method ("MLR", "BPNN", "SVR", …).
	Name() string
	// Observe appends one temperature distribution (°C per module).
	Observe(temps []float64) error
	// Ready reports whether enough history exists to predict.
	Ready() bool
	// Predict returns the next horizon distributions. The returned
	// slices are owned by the caller.
	Predict(horizon int) ([][]float64, error)
}

// Names lists the predictors New builds, in ablation order: the
// paper's MLR, the two methods Section IV rejects, Holt smoothing, the
// persistence baseline and the oracle upper bound.
func Names() []string { return []string{"mlr", "bpnn", "svr", "holt", "hold", "oracle"} }

// New builds a fresh predictor with its default options from a name
// in Names (case-insensitive). truth is read only by the oracle.
func New(name string, truth Truth) (Predictor, error) {
	switch strings.ToLower(name) {
	case "mlr":
		return NewMLR(DefaultMLROptions())
	case "bpnn":
		return NewBPNN(DefaultBPNNOptions())
	case "svr":
		return NewSVR(DefaultSVROptions())
	case "holt":
		return NewHolt(DefaultHoltOptions())
	case "hold":
		return NewHold(), nil
	case "oracle":
		return NewOracle(truth)
	}
	return nil, fmt.Errorf("predict: unknown predictor %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// HistoryCarrier is the optional checkpoint interface of a Predictor:
// a predictor whose model is refit deterministically from its sliding
// observation window implements it, and capturing + restoring the
// window then reproduces every future Predict bit-for-bit. MLR — the
// paper's choice and the scheme registry's default — qualifies: its
// coefficients are a pure function of the retained history, so the
// restored instance refits to the identical model on first use.
// Predictors with hidden state outside the window (a trained BPNN's
// weights depend on initialization order) simply do not implement the
// interface, and sessions using them report themselves as not
// checkpointable instead of restoring wrong.
type HistoryCarrier interface {
	// CaptureHistory returns the retained observation window, oldest
	// first. The rows are copies owned by the caller.
	CaptureHistory() [][]float64
	// RestoreHistory replays a captured window into a freshly built
	// predictor, as if each row had been Observed in order.
	RestoreHistory(window [][]float64) error
}

// History is a bounded sliding window of temperature distributions
// shared by the predictor implementations.
type History struct {
	n     int         // modules per sample
	cap   int         // maximum retained ticks
	ticks [][]float64 // oldest first
}

// NewHistory creates a window retaining at most capTicks distributions.
func NewHistory(capTicks int) (*History, error) {
	if capTicks < 2 {
		return nil, fmt.Errorf("predict: history capacity %d too small", capTicks)
	}
	return &History{cap: capTicks}, nil
}

// Push appends one distribution, evicting the oldest beyond capacity.
// The first push fixes the module count; later pushes must match it.
func (h *History) Push(temps []float64) error {
	if len(temps) == 0 {
		return errors.New("predict: empty temperature sample")
	}
	if h.n == 0 {
		h.n = len(temps)
	} else if len(temps) != h.n {
		return fmt.Errorf("predict: sample with %d modules after %d", len(temps), h.n)
	}
	h.ticks = append(h.ticks, append([]float64(nil), temps...))
	if len(h.ticks) > h.cap {
		h.ticks = h.ticks[1:]
	}
	return nil
}

// Len returns the number of retained ticks.
func (h *History) Len() int { return len(h.ticks) }

// Modules returns the module count (0 before the first push).
func (h *History) Modules() int { return h.n }

// Tick returns the distribution at index k (0 = oldest retained).
func (h *History) Tick(k int) []float64 { return h.ticks[k] }

// Latest returns the most recent distribution.
func (h *History) Latest() []float64 { return h.ticks[len(h.ticks)-1] }

// arSample is one pooled training pair: the last `order` values of one
// module and the value that followed them.
type arSample struct {
	x []float64
	y float64
}

// arDataset extracts all pooled AR training pairs of the given order
// from the history, their lag vectors sharing one backing array.
func arDataset(h *History, order int) []arSample {
	total := arCount(h, order)
	if total == 0 {
		return nil
	}
	x := make([]float64, total*order)
	y := make([]float64, total)
	arRowsInto(h, order, 1, x, order, y)
	out := make([]arSample, total)
	for r := range out {
		out[r] = arSample{x: x[r*order : (r+1)*order : (r+1)*order], y: y[r]}
	}
	return out
}

// arCount returns the number of pooled AR training pairs of the given
// order in h: one per module for every tick with order predecessors.
func arCount(h *History, order int) int {
	if h.Len() <= order {
		return 0
	}
	return (h.Len() - order) * h.Modules()
}

// arRowsInto is the one pooled-dataset builder. It writes every
// stride-th AR training pair of the given order, in dataset order, as
// row r of x (width floats per row, lags in the first order columns,
// the rest left untouched) with its target in y[r], for len(y) rows.
// Pair idx is module idx%N at target tick order+idx/N — modules
// interleave within each tick — so row r is pair r·stride and a strided
// subsample never builds the pairs it skips.
func arRowsInto(h *History, order, stride int, x []float64, width int, y []float64) {
	n := h.Modules()
	for r := range y {
		idx := r * stride
		end, mod := order+idx/n, idx%n
		row := x[r*width : r*width+order]
		for k := range row {
			row[k] = h.Tick(end - order + k)[mod]
		}
		y[r] = h.Tick(end)[mod]
	}
}

// latestFeatures returns the current AR feature vector of every module
// (the inputs for one-step-ahead prediction).
func latestFeatures(h *History, order int) [][]float64 {
	t := h.Len()
	out := make([][]float64, h.Modules())
	for m := range out {
		x := make([]float64, order)
		for k := 0; k < order; k++ {
			x[k] = h.Tick(t - order + k)[m]
		}
		out[m] = x
	}
	return out
}

// rollForward produces a multi-step forecast by repeatedly applying a
// one-step model f to each module's feature window and feeding
// predictions back.
func rollForward(h *History, order, horizon int, f func(x []float64) float64) [][]float64 {
	n := h.Modules()
	// Per-module working windows seeded from history.
	windows := latestFeatures(h, order)
	out := make([][]float64, horizon)
	for step := 0; step < horizon; step++ {
		row := make([]float64, n)
		for m := 0; m < n; m++ {
			y := f(windows[m])
			row[m] = y
			copy(windows[m], windows[m][1:])
			windows[m][order-1] = y
		}
		out[step] = row
	}
	return out
}
