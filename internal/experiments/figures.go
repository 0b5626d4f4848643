package experiments

import (
	"context"
	"fmt"
	"sort"

	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
)

// Fig1Series is one ΔT trace of Fig. 1: the module's I–V and P–V sweep.
type Fig1Series struct {
	DeltaT float64
	Points []teg.CurvePoint
	MPP    teg.MPP
}

// Fig1ModuleCurves regenerates Fig. 1: the I–V / P–V family of the
// TGM-199-1.4-0.8 module at the canonical ΔT steps.
func Fig1ModuleCurves(spec teg.ModuleSpec, ambientC float64, points int) ([]Fig1Series, error) {
	deltaTs := []float64{30, 60, 90, 120, 150, 180}
	fam, err := spec.CurveFamily(ambientC, deltaTs, points)
	if err != nil {
		return nil, err
	}
	out := make([]Fig1Series, 0, len(deltaTs))
	for _, dT := range deltaTs {
		op := teg.OperatingPoint{DeltaT: dT, HotC: ambientC + dT}
		out = append(out, Fig1Series{
			DeltaT: dT,
			Points: fam[dT],
			MPP:    spec.MaxPowerPoint(op),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeltaT < out[j].DeltaT })
	return out, nil
}

// Fig5Result is the prediction-error comparison of Fig. 5.
type Fig5Result struct {
	Horizon int
	Results []predict.EvalResult // MLR, BPNN, SVR in paper order
}

// Fig5PredictionError regenerates Fig. 5: the per-tick percentage error
// of 1-tick-ahead forecasts by MLR, BPNN and SVR over the drive trace.
func Fig5PredictionError(s *Setup, horizon int) (*Fig5Result, error) {
	seq, _, err := s.TempSequence()
	if err != nil {
		return nil, err
	}
	mlr, err := predict.NewMLR(predict.DefaultMLROptions())
	if err != nil {
		return nil, err
	}
	bpnn, err := predict.NewBPNN(predict.DefaultBPNNOptions())
	if err != nil {
		return nil, err
	}
	svr, err := predict.NewSVR(predict.DefaultSVROptions())
	if err != nil {
		return nil, err
	}
	results, err := predict.Compare([]predict.Predictor{mlr, bpnn, svr}, seq, horizon)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Horizon: horizon, Results: results}, nil
}

// PowerSeriesResult carries the Fig. 6 / Fig. 7 time series for all four
// schemes over an excerpt of the drive.
type PowerSeriesResult struct {
	StartS, EndS float64
	Runs         []*sim.Result // DNOR, INOR, EHTR, Baseline
}

// Fig6PowerSeries regenerates Fig. 6: output power of the three
// reconfiguration methods and the baseline over a 120 s window. The same
// run data, normalised by P_ideal per tick, is Fig. 7 (each sim.Tick
// already carries Ratio and the Switched markers that the paper plots as
// black dots on the DNOR curve).
func Fig6PowerSeries(s *Setup, startS, endS float64) (*PowerSeriesResult, error) {
	if endS <= startS {
		return nil, fmt.Errorf("experiments: bad window [%g, %g]", startS, endS)
	}
	window := s.Trace.Slice(startS, endS)
	if window.Len() < 2 {
		return nil, fmt.Errorf("experiments: window [%g, %g] outside trace", startS, endS)
	}
	jobs := make([]sim.Job, len(TableISchemes))
	for i, name := range TableISchemes {
		c, err := s.NewScheme(name)
		if err != nil {
			return nil, err
		}
		jobs[i] = sim.Job{Sys: s.Sys, Trace: window, Ctrl: c, Opts: s.Opts}
	}
	runs, err := sim.Batch{}.Run(context.TODO(), jobs)
	if err != nil {
		return nil, err
	}
	return &PowerSeriesResult{StartS: startS, EndS: endS, Runs: runs}, nil
}
