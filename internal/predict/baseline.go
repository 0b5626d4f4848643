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

// Reset implements Predictor.
func (p *Hold) Reset() { p.hist.Reset() }

// Ready implements Predictor.
func (p *Hold) Ready() bool { return p.hist.Len() >= 1 }

// Work implements Predictor: one sample copy per Observe and per step.
func (p *Hold) Work(horizon int) (observe, predict int64) {
	return int64(p.hist.Modules()), int64(horizon * p.hist.Modules())
}

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

// Oracle replays a future known in advance: the perfect forecast of
// the DNOR ablation, but no upper bound on DNOR's energy, since DNOR
// prices step 0 of its window from the noisy sensed temperatures and
// its switch rule is greedy. It reads each true row from its Truth
// when Predict asks for it, so it holds no copy of the sequence;
// Observe advances an internal cursor.
type Oracle struct {
	truth   Truth
	cursor  int
	modules int // width of the last observed sample
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
	o.modules = len(temps)
	if o.cursor < o.truth.Len() {
		o.cursor++
	}
	return nil
}

// Reset implements Predictor: back to the first tick.
func (o *Oracle) Reset() { o.cursor, o.modules = 0, 0 }

// Ready implements Predictor.
func (o *Oracle) Ready() bool { return o.cursor > 0 }

// Work implements Predictor: a cursor step per Observe, one read per
// module and forecast step.
func (o *Oracle) Work(horizon int) (observe, predict int64) {
	return 1, int64(horizon) * int64(o.modules)
}

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
