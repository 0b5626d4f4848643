package thermal

import "fmt"

// Bank models the real 2-D radiator of Section III.A: a parallel
// connection of identical 1-D S-shaped paths sharing the coolant and air
// supply. Header hydraulics feed the central paths more strongly than
// the edge ones; Maldistribution sets the strength of that parabolic
// flow profile. Each path then carries its own TEG chain with its own
// temperature distribution, which is why per-path reconfiguration keeps
// paying off at bank scale.
type Bank struct {
	// Radiator is the shared per-path geometry.
	Radiator *Radiator
	// Paths is the number of parallel 1-D paths.
	Paths int
	// Maldistribution m ∈ [0, 1): path flow weights follow
	// 1 + m·(4x(1−x) − 2/3) over the normalised path position x,
	// renormalised to preserve total flow. 0 means perfectly even.
	Maldistribution float64
}

// Validate checks the bank description.
func (b *Bank) Validate() error {
	if b.Radiator == nil {
		return fmt.Errorf("thermal: bank with nil radiator")
	}
	if err := b.Radiator.Validate(); err != nil {
		return err
	}
	if b.Paths <= 0 {
		return fmt.Errorf("thermal: bank with %d paths", b.Paths)
	}
	if b.Maldistribution < 0 || b.Maldistribution >= 1 {
		return fmt.Errorf("thermal: maldistribution %g outside [0, 1)", b.Maldistribution)
	}
	return nil
}

// FlowWeights returns the per-path flow weights (mean exactly 1).
func (b *Bank) FlowWeights() ([]float64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	w := make([]float64, b.Paths)
	if b.Paths == 1 {
		w[0] = 1
		return w, nil
	}
	sum := 0.0
	for i := range w {
		x := float64(i) / float64(b.Paths-1)
		w[i] = 1 + b.Maldistribution*(4*x*(1-x)-2.0/3.0)
		sum += w[i]
	}
	scale := float64(b.Paths) / sum
	for i := range w {
		w[i] *= scale
	}
	return w, nil
}
