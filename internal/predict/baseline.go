package predict

import "fmt"

// Hold is the persistence baseline: it predicts that the temperature
// distribution stays at its last observed value. DNOR with a Hold
// predictor isolates the value of real forecasting in the ablation
// experiments.
type Hold struct {
	hist *History
}

// NewHold constructs the persistence predictor.
func NewHold() *Hold {
	h, _ := NewHistory(2)
	return &Hold{hist: h}
}

// Name implements Predictor.
func (p *Hold) Name() string { return "Hold" }

// Observe implements Predictor.
func (p *Hold) Observe(temps []float64) error { return p.hist.Push(temps) }

// Ready implements Predictor.
func (p *Hold) Ready() bool { return p.hist.Len() >= 1 }

// Predict implements Predictor.
func (p *Hold) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !p.Ready() {
		return nil, ErrNotReady
	}
	last := p.hist.Latest()
	out := make([][]float64, horizon)
	for i := range out {
		out[i] = append([]float64(nil), last...)
	}
	return out, nil
}

// Truth is a ground-truth distribution sequence: Len control ticks,
// row k the true distribution at tick k.
type Truth interface {
	Len() int
	Temps(k int) ([]float64, error)
}

// Oracle replays a future known in advance — the upper bound for the
// DNOR ablation. It reads each true row from its Truth when Predict
// asks for it, so it holds no copy of the sequence; Observe advances
// an internal cursor.
type Oracle struct {
	truth  Truth
	cursor int
}

// NewOracle wraps the ground-truth sequence (one row per control tick,
// aligned with the Observe calls that will follow).
func NewOracle(truth Truth) (*Oracle, error) {
	if truth == nil || truth.Len() == 0 {
		return nil, fmt.Errorf("predict: oracle needs ground truth")
	}
	return &Oracle{truth: truth}, nil
}

// Name implements Predictor.
func (o *Oracle) Name() string { return "Oracle" }

// Observe implements Predictor: advances past the tick just observed.
func (o *Oracle) Observe(temps []float64) error {
	if o.cursor < o.truth.Len() {
		o.cursor++
	}
	return nil
}

// Ready implements Predictor.
func (o *Oracle) Ready() bool { return o.cursor > 0 }

// Predict implements Predictor: returns the true next distributions,
// clamping at the end of the known future by repeating the final tick.
func (o *Oracle) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !o.Ready() {
		return nil, ErrNotReady
	}
	last := o.truth.Len() - 1
	out := make([][]float64, horizon)
	for i := range out {
		row, err := o.truth.Temps(min(o.cursor+i, last))
		if err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}
