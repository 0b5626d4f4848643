package experiments

import (
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

// ScalingStudy times single INOR and EHTR decisions with the wall
// clock across array sizes on a synthetic radiator profile — the
// scalability argument of the paper's Sections I and VII, measured on
// this implementation (Decision.ComputeTime prices the published
// algorithms instead). The exhaustive side runs the shared-table DP,
// O(N·(N+nmax)) per decision, so the gap is its table-build premium,
// not the O(N³) blow-up the paper contrasts. Each runtime is the
// fastest of reps decisions on warmed controllers.
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
			t0 := time.Now()
			if _, err := inor.Decide(r, temps, 25); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := ehtr.Decide(r, temps, 25); err != nil {
				return nil, err
			}
			ti, te := t1.Sub(t0), time.Since(t1)
			if r == 0 || ti < p.INORRuntime {
				p.INORRuntime = ti
			}
			if r == 0 || te < p.EHTRRuntime {
				p.EHTRRuntime = te
			}
		}
		if p.INORRuntime > 0 {
			p.Speedup = float64(p.EHTRRuntime) / float64(p.INORRuntime)
		}
		out = append(out, p)
	}
	return out, nil
}
