// Package converter models the TEG charger of Section III.B: an
// LTM4607-style buck-boost regulator converting the array output to the
// vehicle battery's 13.8 V charging voltage. Its efficiency peaks when
// the input voltage matches the output and decays as the input deviates
// — the property that bounds the usable group-count window [nmin, nmax]
// of the reconfiguration algorithms.
package converter

import (
	"fmt"
	"math"
)

// Model is a buck-boost converter efficiency model.
//
// Efficiency is modelled as
//
//	η(Vin) = PeakEff − Spread·ln²(Vin/Vout)
//
// clamped to [FloorEff, PeakEff], with an additional linear derating
// below MinInput that reaches zero at Vin = 0 (deep-buck/boost operation
// collapses). The log-quadratic form matches the measured LTM4607
// curves: symmetric in voltage *ratio*, ~98% at Vin = Vout, a few
// percent down at 2:1 or 1:2 conversion, and steeply worse past 3:1.
type Model struct {
	// OutputVoltage is the regulated output (battery charging) voltage.
	OutputVoltage float64
	// PeakEff is the efficiency at Vin == OutputVoltage (0–1).
	PeakEff float64
	// Spread scales the efficiency loss per squared log voltage ratio.
	Spread float64
	// FloorEff is the minimum efficiency inside the operating range.
	FloorEff float64
	// MinInput and MaxInput delimit the electrical operating range; the
	// converter shuts down outside (efficiency 0).
	MinInput, MaxInput float64
}

// LTM4607 returns the charger model used by the experiments: a 13.8 V
// lead-acid charging output, 98% peak efficiency, 4.5–36 V input range
// (the LTM4607 datasheet envelope).
func LTM4607() Model {
	return Model{
		OutputVoltage: 13.8,
		PeakEff:       0.98,
		Spread:        0.055,
		FloorEff:      0.60,
		MinInput:      4.5,
		MaxInput:      36.0,
	}
}

// Validate rejects inconsistent parameters.
func (m Model) Validate() error {
	if m.OutputVoltage <= 0 {
		return fmt.Errorf("converter: non-positive output voltage %g", m.OutputVoltage)
	}
	if m.PeakEff <= 0 || m.PeakEff > 1 {
		return fmt.Errorf("converter: peak efficiency %g outside (0,1]", m.PeakEff)
	}
	if m.FloorEff < 0 || m.FloorEff > m.PeakEff {
		return fmt.Errorf("converter: floor efficiency %g outside [0, peak]", m.FloorEff)
	}
	if m.Spread < 0 {
		return fmt.Errorf("converter: negative spread %g", m.Spread)
	}
	if m.MinInput <= 0 || m.MaxInput <= m.MinInput {
		return fmt.Errorf("converter: bad input range [%g, %g]", m.MinInput, m.MaxInput)
	}
	return nil
}

// Efficiency returns η(Vin) ∈ [0, 1]. Inputs outside [MinInput,
// MaxInput] return 0 (converter shut down); callers treat that as an
// infeasible operating point. For a validated model with finite
// parameters and a finite vin the result never exceeds PeakEff: the
// deciders' candidate pricing relies on that bound to skip points.
func (m Model) Efficiency(vin float64) float64 {
	if vin < m.MinInput || vin > m.MaxInput {
		return 0
	}
	ratio := math.Log(vin / m.OutputVoltage)
	eff := m.PeakEff - m.Spread*ratio*ratio
	if eff < m.FloorEff {
		eff = m.FloorEff
	}
	return eff
}

// MaxEfficiency returns the largest Efficiency over input voltages in
// [lo, hi]: 0 when the interval misses [MinInput, MaxInput], PeakEff
// when it contains OutputVoltage, and otherwise the efficiency at the
// in-range end nearest OutputVoltage, because η falls monotonically
// away from OutputVoltage on both sides (the floor clamp only flattens
// it). The deciders' candidate pruning bounds delivered power with it.
func (m Model) MaxEfficiency(lo, hi float64) float64 {
	lo, hi = max(lo, m.MinInput), min(hi, m.MaxInput)
	switch {
	case !(lo <= hi):
		return 0
	case hi < m.OutputVoltage:
		return m.Efficiency(hi)
	case lo > m.OutputVoltage:
		return m.Efficiency(lo)
	}
	return m.Efficiency(m.OutputVoltage)
}

// OutputPower returns the power delivered to the battery for a given
// array operating point (input voltage and power).
func (m Model) OutputPower(vin, pin float64) float64 {
	if pin <= 0 {
		return 0
	}
	return pin * m.Efficiency(vin)
}

// GroupCountWindow translates the converter's usable input band into the
// [nmin, nmax] group-count range of Algorithm 1: given the typical
// per-group MPP voltage vGroup (V), it returns the smallest and largest
// series group counts whose stacked MPP voltage stays within
// [MinInput, MaxInput], additionally centred to keep the voltage near
// OutputVoltage where efficiency peaks. vGroup must be positive.
func (m Model) GroupCountWindow(vGroup float64, maxGroups int) (nmin, nmax int, err error) {
	if vGroup <= 0 {
		return 0, 0, fmt.Errorf("converter: non-positive group voltage %g", vGroup)
	}
	if maxGroups <= 0 {
		return 0, 0, fmt.Errorf("converter: non-positive max group count %d", maxGroups)
	}
	nmin = int(math.Ceil(m.MinInput / vGroup))
	if nmin < 1 {
		nmin = 1
	}
	nmax = int(math.Floor(m.MaxInput / vGroup))
	if nmax > maxGroups {
		nmax = maxGroups
	}
	if nmax < nmin {
		return 0, 0, fmt.Errorf("converter: no feasible group count for group voltage %g V", vGroup)
	}
	return nmin, nmax, nil
}
