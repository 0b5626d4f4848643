package thermal

import (
	"fmt"
	"math"

	"tegrecon/internal/units"
)

// Radiator describes the S-shaped finned-tube radiator of Fig. 2: a
// single coolant path of length PathLength with UAPerLength of overall
// heat-transfer conductance to the ambient air stream per metre of path.
// The 2-D radiator of a real vehicle is a parallel bank of these 1-D
// paths, so one path with the per-path flow fraction captures the
// behaviour seen by the TEG chain (Section III.A of the paper).
type Radiator struct {
	// PathLength is the unfolded coolant path length in metres.
	PathLength float64
	// UAPerLength is the overall conductance per metre of path, W/(m·K).
	UAPerLength float64
	// Arrangement selects the ε-NTU correlation used for whole-exchanger
	// heat-duty queries; the distribution itself uses the exponential
	// closed form of Eq. (1).
	Arrangement FlowArrangement
	// Coolant and AirSide fluids; defaults applied by Validate.
	Coolant Fluid
	AirSide Fluid
}

// DefaultRadiator returns the radiator geometry calibrated for the
// 100-module Hyundai Porter II experiments (Section VI): a ~4 m unfolded
// path along which, at the nominal per-path coolant flow (~0.12 kg/s),
// the excess temperature e-folds roughly 1.3 times — entrance modules
// sit near the coolant inlet temperature while exhaust-end modules run
// ~40 K cooler. Combined with the TGM-199-1.4-0.8 module model this puts
// the 100-module array's ideal power near the paper's ~55 W scale, and
// the spread is what makes static configurations lose ~30% (Table I).
func DefaultRadiator() *Radiator {
	return &Radiator{
		PathLength:  4.0,
		UAPerLength: 145.0,
		Arrangement: CrossFlowBothUnmixed,
		Coolant:     Coolant50Glycol,
		AirSide:     Air,
	}
}

// Validate checks geometry and fills zero-valued fluids with defaults.
func (r *Radiator) Validate() error {
	if r.PathLength <= 0 {
		return fmt.Errorf("thermal: non-positive path length %g", r.PathLength)
	}
	if r.UAPerLength <= 0 {
		return fmt.Errorf("thermal: non-positive UA per length %g", r.UAPerLength)
	}
	if r.Coolant == (Fluid{}) {
		r.Coolant = Coolant50Glycol
	}
	if r.AirSide == (Fluid{}) {
		r.AirSide = Air
	}
	if err := r.Coolant.Validate(); err != nil {
		return err
	}
	return r.AirSide.Validate()
}

// Conditions are the boundary conditions measured at the radiator at one
// time instant — exactly the quantities the paper measures on the truck
// (inlet temperatures and flow rates of both fluids).
type Conditions struct {
	CoolantInletC  float64 // Th,i, °C
	CoolantFlowKgS float64 // kg/s through this path
	AirInletC      float64 // ambient/heatsink temperature Tamb, °C
	AirFlowKgS     float64 // air mass flow across this path, kg/s
}

// Validate rejects non-physical conditions.
func (c Conditions) Validate() error {
	if c.CoolantFlowKgS <= 0 {
		return fmt.Errorf("thermal: non-positive coolant flow %g", c.CoolantFlowKgS)
	}
	if c.AirFlowKgS <= 0 {
		return fmt.Errorf("thermal: non-positive air flow %g", c.AirFlowKgS)
	}
	if c.CoolantInletC < c.AirInletC {
		return fmt.Errorf("thermal: coolant inlet %g°C below air inlet %g°C", c.CoolantInletC, c.AirInletC)
	}
	return nil
}

// Distribution holds the closed-form coolant temperature profile of
// Eq. (1) for one set of conditions.
type Distribution struct {
	ThI   float64 // coolant inlet temperature, °C
	TcA   float64 // arithmetic-mean air temperature Tc,a, °C
	Decay float64 // K/Cc in Eq. (1), 1/m
	L     float64 // path length, m
}

// TempAt returns T(d) in °C for a distance d metres from the entrance,
// clamped to the path.
func (dist Distribution) TempAt(d float64) float64 {
	d = units.Clamp(d, 0, dist.L)
	return (dist.ThI-dist.TcA)*math.Exp(-dist.Decay*d) + dist.TcA
}

// OutletC returns the coolant temperature at the path exit.
func (dist Distribution) OutletC() float64 { return dist.TempAt(dist.L) }

// Solve evaluates the radiator under the given conditions, returning the
// temperature distribution. The mean cold-side temperature Tc,a is found
// by a small fixed-point iteration: the air outlet temperature follows
// from the heat duty, which itself depends on the distribution — two or
// three iterations converge to well under a millikelvin.
func (r *Radiator) Solve(c Conditions) (Distribution, error) {
	if err := r.Validate(); err != nil {
		return Distribution{}, err
	}
	if err := c.Validate(); err != nil {
		return Distribution{}, err
	}
	ch := r.Coolant.CapacityRate(c.CoolantFlowKgS) // hot stream, W/K
	cc := r.AirSide.CapacityRate(c.AirFlowKgS)     // cold stream, W/K
	ua := r.UAPerLength * r.PathLength

	// Whole-exchanger effectiveness for the heat duty.
	cmin, cmax := ch, cc
	if cc < ch {
		cmin, cmax = cc, ch
	}
	eff, err := Effectiveness(r.Arrangement, NTU(ua, cmin), cmin/cmax)
	if err != nil {
		return Distribution{}, err
	}

	tcA := c.AirInletC // start with the inlet as the mean air temp
	var dist Distribution
	for iter := 0; iter < 8; iter++ {
		q := eff * cmin * (c.CoolantInletC - c.AirInletC) // W
		airOut := c.AirInletC + q/cc
		newTcA := (c.AirInletC + airOut) / 2

		// Per Eq. (1) the decay constant is K/Cc with K the overall
		// heat-transfer coefficient; distributed over the path this is
		// UAPerLength divided by the *hot* stream capacity rate (the
		// coolant is what cools down along d). The paper's symbol Cc is
		// used for the capacity rate normalising the exponent; for the
		// automotive radiator Ch < Cc air-side totals, and calibration
		// against the measured profile absorbs the difference.
		dist = Distribution{
			ThI:   c.CoolantInletC,
			TcA:   newTcA,
			Decay: r.UAPerLength / ch,
			L:     r.PathLength,
		}
		if math.Abs(newTcA-tcA) < 1e-6 {
			break
		}
		tcA = newTcA
	}
	return dist, nil
}

// ModuleTemps returns the hot-side temperature (°C) of each of n TEG
// modules spaced uniformly along the path, evaluated at the module
// centres. This is the T(i) of Section III.A.
func (r *Radiator) ModuleTemps(c Conditions, n int) ([]float64, error) {
	return r.ModuleTempsInto(nil, c, n)
}

// ModuleTempsInto is ModuleTemps writing into dst, reusing its backing
// storage when the capacity suffices. The simulation engine evaluates
// one temperature distribution per control period, so the per-tick
// allocation here used to be the first heap hit of every Session.Step;
// a preallocated module-bank buffer removes it.
func (r *Radiator) ModuleTempsInto(dst []float64, c Conditions, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("thermal: non-positive module count %d", n)
	}
	dist, err := r.Solve(c)
	if err != nil {
		return nil, err
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	pitch := r.PathLength / float64(n)
	for i := range dst {
		dst[i] = dist.TempAt((float64(i) + 0.5) * pitch)
	}
	return dst, nil
}

// HeatDuty returns the total heat rejected by the radiator (W) under the
// given conditions, using the whole-exchanger ε-NTU relation.
func (r *Radiator) HeatDuty(c Conditions) (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	ch := r.Coolant.CapacityRate(c.CoolantFlowKgS)
	cc := r.AirSide.CapacityRate(c.AirFlowKgS)
	cmin, cmax := ch, cc
	if cc < ch {
		cmin, cmax = cc, ch
	}
	eff, err := Effectiveness(r.Arrangement, NTU(r.UAPerLength*r.PathLength, cmin), cmin/cmax)
	if err != nil {
		return 0, err
	}
	return eff * cmin * (c.CoolantInletC - c.AirInletC), nil
}
