package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"tegrecon/internal/core"
	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
)

// ScalingPoint is one array size of the Ext-A scalability study.
type ScalingPoint struct {
	N           int
	INORRuntime time.Duration
	EHTRRuntime time.Duration
	Speedup     float64
}

// ScalingStudy measures single-invocation INOR vs EHTR runtime across
// array sizes on a synthetic radiator profile — the scalability
// argument of the paper's Sections I and VII. The paper contrasts the
// O(N) greedy with an O(N³) exhaustive search; here the exhaustive
// side runs the shared-table DP (Knuth-bounded rows, O(N·(N+nmax)) per
// decision), so the measured gap is the residual table-build premium
// rather than the naive cubic blow-up. Each runtime is the fastest of reps decisions
// on warmed controllers — the least-disturbed sample, since anything
// else sharing the CPU only ever adds time.
func ScalingStudy(sizes []int, reps int) ([]ScalingPoint, error) {
	if reps < 1 {
		return nil, fmt.Errorf("experiments: reps %d < 1", reps)
	}
	eval, err := core.NewEvaluator(teg.TGM199, sim.DefaultSystem().Conv)
	if err != nil {
		return nil, err
	}
	out := make([]ScalingPoint, 0, len(sizes))
	for _, n := range sizes {
		if n < 10 {
			return nil, fmt.Errorf("experiments: scaling size %d too small", n)
		}
		temps := make([]float64, n)
		for i := range temps {
			temps[i] = 38 + 54*math.Exp(-3*float64(i)/float64(n))
		}
		inor, err := core.NewINOR(eval)
		if err != nil {
			return nil, err
		}
		ehtr, err := core.NewEHTR(eval)
		if err != nil {
			return nil, err
		}
		// One untimed decision each grows the controllers' scratch to
		// steady state, so the timed ones price the algorithm, not
		// first-call buffer allocation.
		if _, err := inor.Decide(-1, temps, 25); err != nil {
			return nil, err
		}
		if _, err := ehtr.Decide(-1, temps, 25); err != nil {
			return nil, err
		}
		p := ScalingPoint{N: n}
		for r := 0; r < reps; r++ {
			di, err := inor.Decide(r, temps, 25)
			if err != nil {
				return nil, err
			}
			de, err := ehtr.Decide(r, temps, 25)
			if err != nil {
				return nil, err
			}
			if r == 0 || di.ComputeTime < p.INORRuntime {
				p.INORRuntime = di.ComputeTime
			}
			if r == 0 || de.ComputeTime < p.EHTRRuntime {
				p.EHTRRuntime = de.ComputeTime
			}
		}
		if p.INORRuntime > 0 {
			p.Speedup = float64(p.EHTRRuntime) / float64(p.INORRuntime)
		}
		out = append(out, p)
	}
	return out, nil
}

// HorizonPoint is one tp of the Ext-B ablation.
type HorizonPoint struct {
	HorizonTicks int
	EnergyOutJ   float64
	OverheadJ    float64
	SwitchEvents int
}

// HorizonAblation sweeps DNOR's prediction horizon tp over the setup's
// trace. Horizon 1 is the shortest durable window; larger horizons
// amortise switches further but lean harder on forecast quality.
func HorizonAblation(s *Setup, horizons []int) ([]HorizonPoint, error) {
	return HorizonAblationContext(context.Background(), s, horizons)
}

// HorizonAblationContext is HorizonAblation with cancellation threaded
// into every run's per-tick check.
func HorizonAblationContext(ctx context.Context, s *Setup, horizons []int) ([]HorizonPoint, error) {
	jobs := make([]sim.Job, 0, len(horizons))
	for _, h := range horizons {
		setup := *s
		setup.HorizonTicks = h
		dnor, err := setup.NewDNOR()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Sys: s.Sys, Trace: s.Trace, Ctrl: dnor, Opts: s.summaryOpts()})
	}
	results, err := sim.Batch{Workers: s.Opts.Workers, Stepping: s.Opts.Stepping}.RunContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]HorizonPoint, 0, len(horizons))
	for i, h := range horizons {
		out = append(out, HorizonPoint{
			HorizonTicks: h,
			EnergyOutJ:   results[i].EnergyOutJ,
			OverheadJ:    results[i].OverheadJ,
			SwitchEvents: results[i].SwitchEvents,
		})
	}
	return out, nil
}

// PredictorPoint is one predictor of the Ext-D ablation.
type PredictorPoint struct {
	Predictor    string
	EnergyOutJ   float64
	OverheadJ    float64
	SwitchEvents int
}

// PredictorAblation runs DNOR with each predictor (MLR, BPNN, SVR, the
// persistence baseline, and the oracle upper bound) over the setup's
// trace.
func PredictorAblation(s *Setup) ([]PredictorPoint, error) {
	return PredictorAblationContext(context.Background(), s)
}

// PredictorAblationContext is PredictorAblation with cancellation
// threaded into every run's per-tick check.
func PredictorAblationContext(ctx context.Context, s *Setup) ([]PredictorPoint, error) {
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
	holt, err := predict.NewHolt(predict.DefaultHoltOptions())
	if err != nil {
		return nil, err
	}
	oracle, err := predict.NewOracle(seq)
	if err != nil {
		return nil, err
	}
	preds := []predict.Predictor{mlr, bpnn, svr, holt, predict.NewHold(), oracle}
	jobs := make([]sim.Job, 0, len(preds))
	for _, p := range preds {
		dnor, err := s.NewDNORWith(p)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Sys: s.Sys, Trace: s.Trace, Ctrl: dnor, Opts: s.summaryOpts()})
	}
	results, err := sim.Batch{Workers: s.Opts.Workers, Stepping: s.Opts.Stepping}.RunContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]PredictorPoint, 0, len(preds))
	for i, p := range preds {
		out = append(out, PredictorPoint{
			Predictor:    p.Name(),
			EnergyOutJ:   results[i].EnergyOutJ,
			OverheadJ:    results[i].OverheadJ,
			SwitchEvents: results[i].SwitchEvents,
		})
	}
	return out, nil
}

// WindowPoint is one converter window of the Ext-C ablation.
type WindowPoint struct {
	MinInput, MaxInput float64
	EnergyOutJ         float64
}

// WindowAblation narrows the converter's input-voltage band (hence
// INOR's [nmin, nmax]) and measures delivered energy, demonstrating why
// the group-count window matters (Section III.B).
func WindowAblation(s *Setup, windows [][2]float64) ([]WindowPoint, error) {
	return WindowAblationContext(context.Background(), s, windows)
}

// WindowAblationContext is WindowAblation with cancellation threaded
// into every run's per-tick check.
func WindowAblationContext(ctx context.Context, s *Setup, windows [][2]float64) ([]WindowPoint, error) {
	jobs := make([]sim.Job, 0, len(windows))
	for _, w := range windows {
		if w[1] <= w[0] {
			return nil, fmt.Errorf("experiments: bad window [%g, %g]", w[0], w[1])
		}
		// Each job gets its own System copy carrying the narrowed band.
		setup := *s
		sysCopy := *s.Sys
		sysCopy.Conv.MinInput = w[0]
		sysCopy.Conv.MaxInput = w[1]
		setup.Sys = &sysCopy
		inor, err := setup.NewINOR()
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Sys: setup.Sys, Trace: s.Trace, Ctrl: inor, Opts: s.summaryOpts()})
	}
	results, err := sim.Batch{Workers: s.Opts.Workers, Stepping: s.Opts.Stepping}.RunContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]WindowPoint, 0, len(windows))
	for i, w := range windows {
		out = append(out, WindowPoint{MinInput: w[0], MaxInput: w[1], EnergyOutJ: results[i].EnergyOutJ})
	}
	return out, nil
}

// MarginPoint is one hysteresis margin of the Ext-H ablation.
type MarginPoint struct {
	MarginJ      float64
	EnergyOutJ   float64
	OverheadJ    float64
	SwitchEvents int
}

// MarginAblation (Ext-H) sweeps the extra switch-decision margin added
// on top of Algorithm 2's E_old ≤ E_new − E_overhead test. The paper's
// rule is margin 0; positive margins trade a little peak energy for
// fewer switch events — the knob that closes the gap between our
// synthetic trace's switch count and the paper's (EXPERIMENTS.md
// Table I note 1).
func MarginAblation(s *Setup, marginsJ []float64) ([]MarginPoint, error) {
	return MarginAblationContext(context.Background(), s, marginsJ)
}

// MarginAblationContext is MarginAblation with cancellation threaded
// into every run's per-tick check.
func MarginAblationContext(ctx context.Context, s *Setup, marginsJ []float64) ([]MarginPoint, error) {
	eval, err := s.Evaluator()
	if err != nil {
		return nil, err
	}
	jobs := make([]sim.Job, 0, len(marginsJ))
	for _, m := range marginsJ {
		mlr, err := predict.NewMLR(predict.DefaultMLROptions())
		if err != nil {
			return nil, err
		}
		dnor, err := core.NewDNOR(eval, core.DNOROptions{
			Predictor:    mlr,
			HorizonTicks: s.HorizonTicks,
			TickSeconds:  s.Opts.TickSeconds,
			Overhead:     s.Sys.Overhead,
			ExtraMargin:  m,
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Sys: s.Sys, Trace: s.Trace, Ctrl: dnor, Opts: s.summaryOpts()})
	}
	results, err := sim.Batch{Workers: s.Opts.Workers, Stepping: s.Opts.Stepping}.RunContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]MarginPoint, 0, len(marginsJ))
	for i, m := range marginsJ {
		out = append(out, MarginPoint{
			MarginJ:      m,
			EnergyOutJ:   results[i].EnergyOutJ,
			OverheadJ:    results[i].OverheadJ,
			SwitchEvents: results[i].SwitchEvents,
		})
	}
	return out, nil
}
