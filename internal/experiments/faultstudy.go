package experiments

import (
	"context"
	"fmt"

	"tegrecon/internal/faults"
	"tegrecon/internal/sim"
)

// FaultPoint is one scheme of the Ext-E fault-tolerance study.
type FaultPoint struct {
	Scheme            string
	HealthyEnergyJ    float64 // energy with no faults
	FaultyEnergyJ     float64 // energy with the fault plan active
	RetainedFraction  float64 // faulty / healthy
	FaultyIdealJ      float64 // ideal energy of the surviving modules
	FaultyCaptureFrac float64 // faulty energy / surviving-module ideal
}

// FaultStudy (Ext-E) injects `failures` random module failures over the
// trace and compares how much of the healthy-case energy each scheme
// retains. Reconfiguration re-balances around dead modules while the
// static baseline cannot — the extension of the paper's Section I
// robustness motivation.
// The context reaches every run's per-tick check, so a cancel aborts
// the study within one control period.
func FaultStudy(ctx context.Context, s *Setup, failures int, seed int64) ([]FaultPoint, error) {
	if failures <= 0 {
		return nil, fmt.Errorf("experiments: non-positive failure count %d", failures)
	}
	plan, err := faults.RandomPlan(s.Sys.Modules, failures, s.Trace.Duration(), seed)
	if err != nil {
		return nil, err
	}
	schemes := []string{"DNOR", "INOR", "Baseline"}
	// Two independent runs per scheme (healthy and faulted) — one batch.
	cleanOpts := s.summaryOpts()
	faultOpts := cleanOpts
	faultOpts.FaultPlan = plan
	jobs := make([]sim.Job, 0, 2*len(schemes))
	for _, name := range schemes {
		ctrls, err := s.newSchemes(name, name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs,
			sim.Job{Sys: s.Sys, Trace: s.Trace, Ctrl: ctrls[0], Opts: cleanOpts},
			sim.Job{Sys: s.Sys, Trace: s.Trace, Ctrl: ctrls[1], Opts: faultOpts})
	}
	results, err := sim.Batch{Workers: s.Workers}.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]FaultPoint, 0, len(schemes))
	for i, name := range schemes {
		healthy, fr := results[2*i], results[2*i+1]
		p := FaultPoint{
			Scheme:         name,
			HealthyEnergyJ: healthy.EnergyOutJ,
			FaultyEnergyJ:  fr.EnergyOutJ,
			FaultyIdealJ:   fr.IdealEnergyJ,
		}
		if healthy.EnergyOutJ > 0 {
			p.RetainedFraction = fr.EnergyOutJ / healthy.EnergyOutJ
		}
		if fr.IdealEnergyJ > 0 {
			p.FaultyCaptureFrac = fr.EnergyOutJ / fr.IdealEnergyJ
		}
		out = append(out, p)
	}
	return out, nil
}
