package experiments

import (
	"context"
	"fmt"

	"tegrecon/internal/drive"
	"tegrecon/internal/sim"
	"tegrecon/internal/thermal"
)

// BankPoint is one maldistribution level of the Ext-G 2-D radiator
// study.
type BankPoint struct {
	Maldistribution float64
	Paths           int
	INOREnergyJ     float64 // Σ per-path INOR energy
	BaselineEnergyJ float64 // Σ per-path static-baseline energy
	Gain            float64 // INOR/baseline − 1
}

// BankStudy (Ext-G) simulates the full 2-D radiator of Section III.A —
// a bank of parallel 1-D paths with header flow maldistribution, each
// path carrying its own TEG chain, charger and controller — and measures
// the per-path-reconfiguration gain over the static baseline at each
// maldistribution level. The gain stays robustly positive at every
// level; its exact magnitude is non-monotone in maldistribution because
// enriched centre paths develop flatter (baseline-friendlier) profiles
// while starved edge paths develop steeper ones, and the flow→power map
// is nonlinear. Paths are electrically independent here (one charger
// per path); a shared-bus variant would only widen the gap.
// The context reaches every run's per-tick check, so a cancel aborts
// the study within one control period.
func BankStudy(ctx context.Context, s *Setup, paths int, levels []float64) ([]BankPoint, error) {
	if paths < 2 {
		return nil, fmt.Errorf("experiments: bank study needs ≥2 paths, got %d", paths)
	}
	opts := s.summaryOpts()
	// Flatten the whole study — every (level, path) pair contributes an
	// independent INOR and baseline run — into one batch.
	jobs := make([]sim.Job, 0, 2*paths*len(levels))
	levelOf := make([]int, 0, 2*paths*len(levels))
	for li, m := range levels {
		bank := &thermal.Bank{Radiator: s.Sys.Radiator, Paths: paths, Maldistribution: m}
		weights, err := bank.FlowWeights()
		if err != nil {
			return nil, err
		}
		for _, w := range weights {
			pathTrace, err := drive.PathTrace(s.Trace, w)
			if err != nil {
				return nil, err
			}
			ctrls, err := s.newSchemes("INOR", "Baseline")
			if err != nil {
				return nil, err
			}
			jobs = append(jobs,
				sim.Job{Sys: s.Sys, Trace: pathTrace, Ctrl: ctrls[0], Opts: opts},
				sim.Job{Sys: s.Sys, Trace: pathTrace, Ctrl: ctrls[1], Opts: opts})
			levelOf = append(levelOf, li, li)
		}
	}
	results, err := sim.Batch{Workers: s.Workers}.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]BankPoint, len(levels))
	for li, m := range levels {
		out[li] = BankPoint{Maldistribution: m, Paths: paths}
	}
	for i := 0; i < len(results); i += 2 {
		p := &out[levelOf[i]]
		p.INOREnergyJ += results[i].EnergyOutJ
		p.BaselineEnergyJ += results[i+1].EnergyOutJ
	}
	for i := range out {
		if out[i].BaselineEnergyJ > 0 {
			out[i].Gain = out[i].INOREnergyJ/out[i].BaselineEnergyJ - 1
		}
	}
	return out, nil
}
