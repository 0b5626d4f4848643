package array

import (
	"fmt"

	"tegrecon/internal/teg"
)

// ModuleHealth is the electrical condition of one module. Vibration and
// thermal cycling on a vehicle radiator make both failure modes routine
// over a TEG array's life, and reconfiguration is the system's only
// defence: a failed-open module must be carried by its parallel group
// peers, and a failed-short module must not be allowed to drag a large
// group to zero volts.
type ModuleHealth uint8

const (
	// Healthy modules follow the teg.ModuleSpec model.
	Healthy ModuleHealth = iota
	// FailedOpen modules conduct nothing (cracked leg / broken solder).
	FailedOpen
	// FailedShort modules present a near-zero resistance with no EMF
	// (inter-leg metallisation short).
	FailedShort
)

// String names the health state.
func (h ModuleHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case FailedOpen:
		return "failed-open"
	case FailedShort:
		return "failed-short"
	default:
		return fmt.Sprintf("ModuleHealth(%d)", uint8(h))
	}
}

// shortResistance is the residual resistance of a failed-short module.
const shortResistance = 5e-3 // Ω

// NewWithHealth assembles an Array with per-module health. A nil health
// slice means all healthy; otherwise its length must match ops.
func NewWithHealth(spec teg.ModuleSpec, ops []teg.OperatingPoint, health []ModuleHealth) (*Array, error) {
	a, err := New(spec, ops)
	if err != nil {
		return nil, err
	}
	if health != nil {
		if len(health) != len(ops) {
			return nil, fmt.Errorf("array: %d health states for %d modules", len(health), len(ops))
		}
		a.Health = append([]ModuleHealth(nil), health...)
	}
	return a, nil
}

// healthOf returns the health of module i (Healthy when no health vector
// is attached).
func (a *Array) healthOf(i int) ModuleHealth {
	if a.Health == nil {
		return Healthy
	}
	return a.Health[i]
}
