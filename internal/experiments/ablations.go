package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"tegrecon/internal/sim"
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
// side runs the shared-table DP (divide-and-conquer first rows, then
// Knuth-bounded rows, O(N·(N+nmax)) per decision), so the measured gap is the residual table-build premium
// rather than the naive cubic blow-up. Each runtime is the fastest of reps decisions
// on warmed controllers — the least-disturbed sample, since anything
// else sharing the CPU only ever adds time.
func ScalingStudy(sizes []int, reps int) ([]ScalingPoint, error) {
	if reps < 1 {
		return nil, fmt.Errorf("experiments: reps %d < 1", reps)
	}
	// INOR and EHTR read only the rig's system, so a bare Setup is
	// enough to build them through the registry.
	rig := &Setup{Sys: sim.DefaultSystem()}
	out := make([]ScalingPoint, 0, len(sizes))
	for _, n := range sizes {
		if n < 10 {
			return nil, fmt.Errorf("experiments: scaling size %d too small", n)
		}
		temps := make([]float64, n)
		for i := range temps {
			temps[i] = 38 + 54*math.Exp(-3*float64(i)/float64(n))
		}
		inor, err := rig.NewScheme("INOR")
		if err != nil {
			return nil, err
		}
		ehtr, err := rig.NewScheme("EHTR")
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

// WindowPoint is one converter window of the Ext-C ablation.
type WindowPoint struct {
	MinInput, MaxInput float64
	EnergyOutJ         float64
}

// WindowAblation narrows the converter's input-voltage band (hence
// INOR's [nmin, nmax]) and measures delivered energy, demonstrating why
// the group-count window matters (Section III.B).
// Cancellation is threaded into every run's per-tick check.
func WindowAblation(ctx context.Context, s *Setup, windows [][2]float64) ([]WindowPoint, error) {
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
		inor, err := setup.NewScheme("INOR")
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, sim.Job{Sys: setup.Sys, Trace: s.Trace, Ctrl: inor, Opts: s.summaryOpts()})
	}
	results, err := sim.Batch{Workers: s.Workers}.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]WindowPoint, 0, len(windows))
	for i, w := range windows {
		out = append(out, WindowPoint{MinInput: w[0], MaxInput: w[1], EnergyOutJ: results[i].EnergyOutJ})
	}
	return out, nil
}
