package experiments

import (
	"context"
	"fmt"
	"sort"

	"tegrecon/internal/predict"
	"tegrecon/internal/scenario"
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
// of horizon-tick-ahead forecasts by MLR, BPNN and SVR over the true
// module temperatures of a trace replay.
func Fig5PredictionError(truth sim.TempSequence, horizon int) (*Fig5Result, error) {
	seq, err := truth.All()
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

// PowerSeriesResult carries the Fig. 6 / Fig. 7 time series of every
// cell over an excerpt of the drive.
type PowerSeriesResult struct {
	StartS, EndS float64
	Runs         []*sim.Result // one per cell, in cell order, ticks cut to [StartS, EndS)
}

// Fig6PowerSeries regenerates Fig. 6: output power of the three
// reconfiguration methods and the baseline over a window of the drive.
// It runs every cell of m (the paper's figure reads Table I's matrix)
// over the whole trace with ticks kept and cuts the ticks in
// [startS, endS) out of each run, so the figure plots the runs Table I
// totals. The same run data, normalised by P_ideal per tick, is Fig. 7
// (each sim.Tick already carries Ratio and the Switched markers that
// the paper plots as black dots on the DNOR curve).
func Fig6PowerSeries(ctx context.Context, m *scenario.Matrix, startS, endS float64) (*PowerSeriesResult, error) {
	if !(endS > startS) {
		return nil, fmt.Errorf("experiments: bad window [%g, %g]", startS, endS)
	}
	ex, err := m.Expand()
	if err != nil {
		return nil, err
	}
	runs, err := RunCells(ctx, ex, MatrixOptions{})
	if err != nil {
		return nil, err
	}
	for _, r := range runs {
		lo := sort.Search(len(r.Ticks), func(i int) bool { return r.Ticks[i].Time >= startS })
		hi := sort.Search(len(r.Ticks), func(i int) bool { return r.Ticks[i].Time >= endS })
		if hi-lo < 2 {
			return nil, fmt.Errorf("experiments: window [%g, %g) holds fewer than 2 ticks of the %s run", startS, endS, r.Scheme)
		}
		r.Ticks = r.Ticks[lo:hi]
	}
	return &PowerSeriesResult{StartS: startS, EndS: endS, Runs: runs}, nil
}
