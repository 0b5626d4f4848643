package array

import (
	"fmt"

	"tegrecon/internal/units"
)

// thermalInput returns the total heat (W) drawn from the radiator by
// the array, given its module table nt and the module currents already
// solved for the delivered output current (Norton.ModuleCurrentsInto).
// It sums the per-module relation of teg.ModuleSpec.HeatInput (Goupil
// et al.), Q_h = α·T_h·I + K_th·ΔT − ½·I²·R with R read from the
// table, in module order. Conventions for non-ideal modules:
//
//   - healthy modules carrying forward current contribute Peltier +
//     conduction − ½ Joule;
//   - healthy modules driven in reverse (mismatch) still leak conductive
//     heat; their electrical terms are skipped (conservative);
//   - failed-short modules leak conduction only (no Seebeck EMF);
//   - failed-open modules leak half the conduction (cracked leg).
func (a *Array) thermalInput(nt *Norton, currents []float64) float64 {
	alpha, kth := a.Spec.ModuleSeebeck(), a.Spec.ThermalConductanceWK()
	total := 0.0
	for i, op := range a.Ops {
		switch a.healthOf(i) {
		case FailedOpen:
			total += 0.5 * kth * op.DeltaT
		case FailedShort:
			total += kth * op.DeltaT
		default:
			if im := currents[i]; im > 0 {
				total += alpha*units.CToK(op.HotC)*im + kth*op.DeltaT - 0.5*im*im*nt.R[i]
			} else {
				total += kth * op.DeltaT
			}
		}
	}
	return total
}

// ConversionEfficiencyAt returns array electrical output over thermal
// input when the array delivers iOut under the configuration eq is the
// equivalent of — the quantity a system designer quotes as the TEG
// stage's thermal-to-electrical efficiency — or 0 when no heat flows.
// It reads the array's module table nt (NortonInto), the equivalent
// and the module currents solved at (eq, iOut) — see
// Norton.ModuleCurrentsInto. It performs no allocation: the simulator
// calls it once per producing control period and already holds every
// input from the tick's own bookkeeping.
func (a *Array) ConversionEfficiencyAt(nt *Norton, eq Equivalent, iOut float64, currents []float64) (float64, error) {
	if iOut < 0 {
		return 0, fmt.Errorf("array: negative output current %g", iOut)
	}
	if eq.Broken {
		return 0, nil
	}
	heat := a.thermalInput(nt, currents)
	if heat <= 0 {
		return 0, nil
	}
	p := eq.PowerAt(iOut)
	if p < 0 {
		return 0, nil
	}
	return p / heat, nil
}
