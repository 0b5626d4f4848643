package predict

import (
	"fmt"
	"time"

	"tegrecon/internal/stats"
	"tegrecon/internal/units"
)

// EvalPoint is one tick of a rolling-forecast evaluation: the mean (over
// modules) absolute percentage error of the forecast made `horizon`
// ticks earlier for this tick.
type EvalPoint struct {
	Tick int     // index into the evaluated sequence
	APE  float64 // mean absolute percentage error, percent
}

// EvalResult summarises a rolling evaluation of one predictor — the
// data behind Fig. 5 and the accuracy column of the method comparison.
type EvalResult struct {
	Name      string
	Horizon   int
	Series    []EvalPoint   // per-tick mean APE
	MAPE      float64       // Eq. (3) over all evaluated module-ticks
	MaxAPE    float64       // worst module-tick, percent
	Runtime   time.Duration // Observe+Predict work priced by units.WorkTime
	Evaluated int           // module-ticks scored
}

// Evaluate runs p over the distribution sequence seq (one entry per
// tick) in the online protocol: observe tick t, forecast t+horizon, then
// score that forecast when the ground truth arrives. Temperatures are in
// °C and strictly positive for radiator data, so APE is well defined.
// Runtime prices the predictor's counted Work (each Observe, and each
// Predict it is asked for) at the controllers' work unit, so it is the
// same on every run and host.
func Evaluate(p Predictor, seq [][]float64, horizon int) (EvalResult, error) {
	if horizon < 1 {
		return EvalResult{}, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if len(seq) < horizon+2 {
		return EvalResult{}, fmt.Errorf("predict: sequence of %d ticks too short for horizon %d", len(seq), horizon)
	}
	res := EvalResult{Name: p.Name(), Horizon: horizon}
	// pending[t] is the forecast made for tick t.
	pending := make(map[int][]float64)
	var allActual, allForecast []float64
	var work int64
	for t, temps := range seq {
		// Score a forecast that has come due.
		if f, ok := pending[t]; ok {
			delete(pending, t)
			apes, err := stats.APE(temps, f)
			if err != nil {
				return EvalResult{}, fmt.Errorf("predict: scoring tick %d: %w", t, err)
			}
			res.Series = append(res.Series, EvalPoint{Tick: t, APE: stats.Mean(apes)})
			allActual = append(allActual, temps...)
			allForecast = append(allForecast, f...)
		}
		if err := p.Observe(temps); err != nil {
			return EvalResult{}, fmt.Errorf("predict: observing tick %d: %w", t, err)
		}
		observe, predict := p.Work(horizon)
		work += observe
		if p.Ready() && t+horizon < len(seq) {
			fc, err := p.Predict(horizon)
			if err != nil {
				return EvalResult{}, fmt.Errorf("predict: forecasting at tick %d: %w", t, err)
			}
			work += predict
			pending[t+horizon] = fc[horizon-1]
		}
	}
	res.Runtime = units.WorkTime(work)
	res.Evaluated = len(allActual)
	if len(allActual) == 0 {
		return EvalResult{}, fmt.Errorf("predict: nothing evaluated")
	}
	mape, err := stats.MAPE(allActual, allForecast)
	if err != nil {
		return EvalResult{}, err
	}
	res.MAPE = mape
	maxAPE, err := stats.MaxAPE(allActual, allForecast)
	if err != nil {
		return EvalResult{}, err
	}
	res.MaxAPE = maxAPE
	return res, nil
}

// Compare evaluates several predictors on the same sequence and horizon
// — the Fig. 5 experiment in one call.
func Compare(ps []Predictor, seq [][]float64, horizon int) ([]EvalResult, error) {
	out := make([]EvalResult, 0, len(ps))
	for _, p := range ps {
		r, err := Evaluate(p, seq, horizon)
		if err != nil {
			return nil, fmt.Errorf("predict: evaluating %s: %w", p.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}
