package array

import "fmt"

// thermalInputFromCurrents returns the total heat (W) drawn from the
// radiator by the array, given the module currents already solved for
// the delivered output current (Norton.ModuleCurrentsInto). It uses the
// per-module relation of teg.HeatInput (Goupil et al.). Conventions for
// non-ideal modules:
//
//   - healthy modules carrying forward current contribute Peltier +
//     conduction − ½ Joule;
//   - healthy modules driven in reverse (mismatch) still leak conductive
//     heat; their electrical terms are skipped (conservative);
//   - failed-short modules leak conduction only (no Seebeck EMF);
//   - failed-open modules leak half the conduction (cracked leg).
func (a *Array) thermalInputFromCurrents(currents []float64) (float64, error) {
	kth := a.Spec.ThermalConductanceWK()
	total := 0.0
	for i, op := range a.Ops {
		switch a.healthOf(i) {
		case FailedOpen:
			total += 0.5 * kth * op.DeltaT
		case FailedShort:
			total += kth * op.DeltaT
		default:
			if im := currents[i]; im > 0 {
				q, err := a.Spec.HeatInput(op, im)
				if err != nil {
					return 0, err
				}
				total += q
			} else {
				total += kth * op.DeltaT
			}
		}
	}
	return total, nil
}

// ConversionEfficiencyAt returns array electrical output over thermal
// input when the array delivers iOut under cfg — the quantity a system
// designer quotes as the TEG stage's thermal-to-electrical efficiency —
// or 0 when no heat flows. It reads an already computed Equivalent of
// cfg and the module currents solved at (eq, cfg, iOut) — see
// Norton.ModuleCurrentsInto. It performs no allocation:
// the simulator calls it once per producing control period and already
// holds both inputs from the tick's own bookkeeping.
func (a *Array) ConversionEfficiencyAt(eq Equivalent, cfg Config, iOut float64, currents []float64) (float64, error) {
	if iOut < 0 {
		return 0, fmt.Errorf("array: negative output current %g", iOut)
	}
	if eq.Broken {
		return 0, nil
	}
	heat, err := a.thermalInputFromCurrents(currents)
	if err != nil {
		return 0, err
	}
	if heat <= 0 {
		return 0, nil
	}
	p := eq.PowerAt(iOut)
	if p < 0 {
		return 0, nil
	}
	return p / heat, nil
}
