// Package thermal models the vehicle radiator as a finned-tube cross-flow
// heat exchanger (coolant in tubes, ambient air across the fins) using
// the effectiveness-NTU method, following Section II of the paper and
// Bergman, "Introduction to Heat Transfer". Its central product is the
// closed-form coolant temperature distribution along the radiator path,
//
//	T(d) = (Th,i − Tc,a) · exp(−K·d/Cc) + Tc,a     (paper Eq. 1)
//
// discretised onto the N TEG module positions.
package thermal

import "fmt"

// Fluid captures the thermophysical properties the NTU method needs.
type Fluid struct {
	Name    string
	Cp      float64 // specific heat, J/(kg·K)
	Density float64 // kg/m³
}

// Coolant50Glycol is a 50/50 water–ethylene-glycol engine coolant around
// 90 °C (the usual radiator operating point).
var Coolant50Glycol = Fluid{Name: "coolant-50/50-EG", Cp: 3681, Density: 1043}

// Air is ambient air around 25–40 °C.
var Air = Fluid{Name: "air", Cp: 1007, Density: 1.145}

// CapacityRate returns the heat-capacity rate C = ṁ·cp (W/K) for a mass
// flow in kg/s.
func (f Fluid) CapacityRate(massFlow float64) float64 { return massFlow * f.Cp }

// Validate reports an error for non-physical property values.
func (f Fluid) Validate() error {
	if f.Cp <= 0 {
		return fmt.Errorf("thermal: fluid %q has non-positive cp %g", f.Name, f.Cp)
	}
	if f.Density <= 0 {
		return fmt.Errorf("thermal: fluid %q has non-positive density %g", f.Name, f.Density)
	}
	return nil
}
