package array

import "fmt"

// ThermalInput returns the total heat (W) drawn from the radiator by the
// array when it delivers iOut under cfg, using the per-module relation
// of teg.HeatInput (Goupil et al.). Conventions for non-ideal modules:
//
//   - healthy modules carrying forward current contribute Peltier +
//     conduction − ½ Joule;
//   - healthy modules driven in reverse (mismatch) still leak conductive
//     heat; their electrical terms are skipped (conservative);
//   - failed-short modules leak conduction only (no Seebeck EMF);
//   - failed-open modules leak half the conduction (cracked leg).
//
// The companion ConversionEfficiency is array electrical output divided
// by this heat draw — the quantity a system designer quotes as the TEG
// stage's thermal-to-electrical efficiency.
func (a *Array) ThermalInput(cfg Config, iOut float64) (float64, error) {
	currents, err := a.ModuleCurrents(cfg, iOut)
	if err != nil {
		return 0, err
	}
	return a.thermalInputFromCurrents(currents)
}

// thermalInputFromCurrents sums the per-module heat draw given the
// already-solved module currents (as produced by ModuleCurrents /
// ModuleCurrentsInto for the same cfg and iOut).
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

// ConversionEfficiency returns array electrical output over thermal
// input at (cfg, iOut); 0 when no heat flows.
func (a *Array) ConversionEfficiency(cfg Config, iOut float64) (float64, error) {
	nt, eq, err := a.solve(cfg)
	if err != nil {
		return 0, err
	}
	return a.ConversionEfficiencyAt(eq, cfg, iOut, nt.ModuleCurrentsInto(nil, eq, cfg, iOut))
}

// ConversionEfficiencyAt is ConversionEfficiency evaluated against an
// already computed Equivalent of cfg and the module currents solved at
// (eq, cfg, iOut) — see ModuleCurrentsInto. It performs no allocation:
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
