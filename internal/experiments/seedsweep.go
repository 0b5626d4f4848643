package experiments

import (
	"context"
	"fmt"
	"math"

	"tegrecon/internal/drive"
	"tegrecon/internal/sim"
)

// SeedSweepResult aggregates the headline Table I ratios over several
// independently seeded drive traces — the Ext-F robustness check that
// the paper's single-trace claims are not artefacts of one particular
// drive.
type SeedSweepResult struct {
	Seeds int
	// GainVsBaseline statistics (DNOR energy / baseline energy − 1).
	GainMean, GainStd, GainMin float64
	// OverheadRatio statistics (INOR overhead / DNOR overhead; INOR
	// stands in for the reconfigure-every-period cost so the sweep
	// avoids EHTR's cubic runtime).
	OverheadRatioMean, OverheadRatioMin float64
	// DNORBeatsINOR counts seeds where DNOR's net energy ≥ INOR's.
	DNORBeatsINOR int
}

// SeedSweep runs DNOR, INOR and the baseline over `seeds` different
// drive traces of the given duration and aggregates the headline ratios.
//
// The 3·seeds runs are independent, so they execute as one batch on a
// pool bounded by s.Workers. Overhead is priced with deterministic
// (zero) compute time here — the sweep reports energy statistics, not
// runtimes, and dropping the wall-clock term makes the result
// bit-identical across repeats and worker counts.
// The context reaches every run's per-tick check, so a cancel aborts
// the sweep within one control period.
func SeedSweep(ctx context.Context, s *Setup, seeds int, duration float64) (*SeedSweepResult, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: seed sweep needs ≥2 seeds, got %d", seeds)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("experiments: non-positive duration %g", duration)
	}
	opts := s.summaryOpts()
	opts.DeterministicRuntime = true
	jobs := make([]sim.Job, 0, 3*seeds)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := drive.DefaultSynthConfig()
		cfg.Duration = duration
		cfg.Seed = seed * 101
		tr, err := drive.Synthesize(cfg)
		if err != nil {
			return nil, err
		}
		ctrls, err := s.newSchemes("DNOR", "INOR", "Baseline")
		if err != nil {
			return nil, err
		}
		for _, c := range ctrls {
			jobs = append(jobs, sim.Job{Sys: s.Sys, Trace: tr, Ctrl: c, Opts: opts})
		}
	}
	results, err := sim.Batch{Workers: s.Workers}.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}

	gains := make([]float64, 0, seeds)
	ratios := make([]float64, 0, seeds)
	beats := 0
	for k := 0; k < seeds; k++ {
		rd, ri, rb := results[3*k], results[3*k+1], results[3*k+2]
		if rb.EnergyOutJ <= 0 {
			return nil, fmt.Errorf("experiments: seed %d: baseline harvested nothing", k+1)
		}
		gains = append(gains, rd.EnergyOutJ/rb.EnergyOutJ-1)
		if rd.OverheadJ > 0 {
			ratios = append(ratios, ri.OverheadJ/rd.OverheadJ)
		}
		if rd.EnergyOutJ >= ri.EnergyOutJ {
			beats++
		}
	}
	res := &SeedSweepResult{Seeds: seeds, DNORBeatsINOR: beats, GainMin: math.Inf(1), OverheadRatioMin: math.Inf(1)}
	sum := 0.0
	for _, g := range gains {
		sum += g
		if g < res.GainMin {
			res.GainMin = g
		}
	}
	res.GainMean = sum / float64(len(gains))
	varSum := 0.0
	for _, g := range gains {
		d := g - res.GainMean
		varSum += d * d
	}
	if len(gains) > 1 {
		res.GainStd = math.Sqrt(varSum / float64(len(gains)-1))
	}
	if len(ratios) > 0 {
		sum = 0
		for _, r := range ratios {
			sum += r
			if r < res.OverheadRatioMin {
				res.OverheadRatioMin = r
			}
		}
		res.OverheadRatioMean = sum / float64(len(ratios))
	} else {
		res.OverheadRatioMin = 0
	}
	return res, nil
}
