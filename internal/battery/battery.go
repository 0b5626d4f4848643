// Package battery models the lead-acid vehicle battery that terminates
// the harvesting chain: a 13.8 V float-charged 12 V battery that accepts
// the charger output and integrates harvested energy.
package battery

import (
	"fmt"
	"math"
)

// LeadAcid is a simple state-of-charge integrating model of a 12 V
// automotive lead-acid battery.
type LeadAcid struct {
	// CapacityWh is the usable capacity in watt-hours.
	CapacityWh float64
	// SoC is the state of charge in [0, 1].
	SoC float64
	// ChargeEff is the coulombic/energy efficiency of charging (0–1).
	ChargeEff float64
	// FloatVoltage is the charger target, 13.8 V for the paper's system.
	FloatVoltage float64
	// absorbed tracks total accepted energy in joules.
	absorbed float64
}

// NewLeadAcid returns a 60 Ah-class (720 Wh) battery at the given
// initial state of charge.
func NewLeadAcid(initialSoC float64) (*LeadAcid, error) {
	if initialSoC < 0 || initialSoC > 1 {
		return nil, fmt.Errorf("battery: initial SoC %g outside [0,1]", initialSoC)
	}
	return &LeadAcid{
		CapacityWh:   720,
		SoC:          initialSoC,
		ChargeEff:    0.90,
		FloatVoltage: 13.8,
	}, nil
}

// Accept integrates power watts over dt seconds into the battery,
// respecting capacity, and returns the energy actually stored (J).
func (b *LeadAcid) Accept(power, dt float64) (float64, error) {
	if power < 0 || dt < 0 {
		return 0, fmt.Errorf("battery: negative power %g or dt %g", power, dt)
	}
	in := power * dt * b.ChargeEff
	capJ := b.CapacityWh * 3600
	room := (1 - b.SoC) * capJ
	stored := math.Min(in, room)
	b.SoC += stored / capJ
	b.absorbed += stored
	return stored, nil
}

// AbsorbedJoules returns the total energy stored since construction.
func (b *LeadAcid) AbsorbedJoules() float64 { return b.absorbed }

// State is the complete serializable state of a LeadAcid battery: the
// model parameters plus the two integrators (state of charge and total
// absorbed energy). Capturing and restoring it reproduces the battery
// bit-for-bit — Accept is a pure update over these fields.
type State struct {
	CapacityWh   float64
	SoC          float64
	ChargeEff    float64
	FloatVoltage float64
	AbsorbedJ    float64
}

// State snapshots the battery for a checkpoint.
func (b *LeadAcid) State() State {
	return State{
		CapacityWh:   b.CapacityWh,
		SoC:          b.SoC,
		ChargeEff:    b.ChargeEff,
		FloatVoltage: b.FloatVoltage,
		AbsorbedJ:    b.absorbed,
	}
}

// FromState rebuilds a battery from a snapshot.
func FromState(st State) (*LeadAcid, error) {
	if st.SoC < 0 || st.SoC > 1 {
		return nil, fmt.Errorf("battery: snapshot SoC %g outside [0,1]", st.SoC)
	}
	if st.CapacityWh <= 0 || st.ChargeEff <= 0 || st.ChargeEff > 1 {
		return nil, fmt.Errorf("battery: snapshot capacity %g Wh / efficiency %g out of range", st.CapacityWh, st.ChargeEff)
	}
	if st.AbsorbedJ < 0 {
		return nil, fmt.Errorf("battery: snapshot absorbed energy %g J negative", st.AbsorbedJ)
	}
	return &LeadAcid{
		CapacityWh:   st.CapacityWh,
		SoC:          st.SoC,
		ChargeEff:    st.ChargeEff,
		FloatVoltage: st.FloatVoltage,
		absorbed:     st.AbsorbedJ,
	}, nil
}
