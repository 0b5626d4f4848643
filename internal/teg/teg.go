// Package teg models a single thermoelectric generator module with the
// linear Seebeck/internal-resistance circuit of Eq. (2):
//
//	E = α·ΔT·Ncpl,  I = E/(R_teg + R_load),  P = I²·R_load
//
// together with the TGM-199-1.4-0.8 parameterisation used by the paper,
// its maximum power point, and the I–V / P–V curve families of Fig. 1.
package teg

import (
	"fmt"
	"math"
)

// ModuleSpec is the datasheet description of a TEG module. The electrical
// model is the Thevenin source of Eq. (2): an EMF proportional to the
// hot/cold temperature difference behind an internal resistance with a
// linear temperature coefficient.
type ModuleSpec struct {
	// Name of the part, e.g. "TGM-199-1.4-0.8".
	Name string
	// Couples is Ncpl, the number of thermocouples in series.
	Couples int
	// SeebeckPerCouple α in V/K per couple (p+n leg pair).
	SeebeckPerCouple float64
	// InternalResistance R_teg in Ω at ReferenceHotC.
	InternalResistance float64
	// ResistanceTempCoeff is the fractional resistance change per kelvin
	// of hot-side temperature above ReferenceHotC (Bi₂Te₃ resistivity
	// rises with temperature).
	ResistanceTempCoeff float64
	// ReferenceHotC is the hot-side temperature (°C) at which
	// InternalResistance is specified.
	ReferenceHotC float64
	// MaxDeltaT is the datasheet ceiling on ΔT in kelvin; Validate and
	// the curve generators reject larger differences.
	MaxDeltaT float64
	// ThermalConductance is the hot-to-cold conductance K_th in W/K used
	// by the heat-flow/efficiency relations (thermo.go); 0 derives a
	// Bi₂Te₃-typical value from the electrical parameters.
	ThermalConductance float64
}

// TGM199 is the TGM-199-1.4-0.8 module the paper uses: 199 couples at
// ≈300 µV/K each (≈0.060 V/K module-level Seebeck coefficient) behind
// ≈2.9 Ω of internal resistance at 50 °C hot side. Per the Kryotherm
// datasheet the module delivers ≈5 W at ΔT = 150 K into a matched load
// and ≈1 W at ΔT = 60 K, which this parameterisation reproduces.
var TGM199 = ModuleSpec{
	Name:                "TGM-199-1.4-0.8",
	Couples:             199,
	SeebeckPerCouple:    3.0e-4, // V/K per couple → 0.0597 V/K per module
	InternalResistance:  2.90,
	ResistanceTempCoeff: 0.004,
	ReferenceHotC:       50,
	MaxDeltaT:           200,
	ThermalConductance:  0.53, // W/K → ZT ≈ 0.7 at 300 K
}

// Validate rejects non-physical specs.
func (s ModuleSpec) Validate() error {
	if s.Couples <= 0 {
		return fmt.Errorf("teg: %s: non-positive couple count %d", s.Name, s.Couples)
	}
	if s.SeebeckPerCouple <= 0 {
		return fmt.Errorf("teg: %s: non-positive Seebeck coefficient %g", s.Name, s.SeebeckPerCouple)
	}
	if s.InternalResistance <= 0 {
		return fmt.Errorf("teg: %s: non-positive internal resistance %g", s.Name, s.InternalResistance)
	}
	if s.ResistanceTempCoeff < 0 {
		return fmt.Errorf("teg: %s: negative resistance temperature coefficient %g", s.Name, s.ResistanceTempCoeff)
	}
	if s.MaxDeltaT <= 0 {
		return fmt.Errorf("teg: %s: non-positive max ΔT %g", s.Name, s.MaxDeltaT)
	}
	return nil
}

// ModuleSeebeck returns the module-level Seebeck coefficient α·Ncpl in
// V/K.
func (s ModuleSpec) ModuleSeebeck() float64 {
	return s.SeebeckPerCouple * float64(s.Couples)
}

// OpenCircuitVoltage returns E = α·ΔT·Ncpl for a temperature difference
// ΔT (K). Negative ΔT yields a negative EMF (the module still obeys the
// linear model when reverse-biased thermally).
func (s ModuleSpec) OpenCircuitVoltage(deltaT float64) float64 {
	return s.ModuleSeebeck() * deltaT
}

// Resistance returns R_teg at the given hot-side temperature (°C).
func (s ModuleSpec) Resistance(hotC float64) float64 {
	r := s.InternalResistance * (1 + s.ResistanceTempCoeff*(hotC-s.ReferenceHotC))
	// Resistance can never drop below a small positive floor even for
	// extreme extrapolation.
	if min := 0.05 * s.InternalResistance; r < min {
		return min
	}
	return r
}

// OperatingPoint is one (ΔT, hot-side) thermal state of a module.
type OperatingPoint struct {
	DeltaT float64 // K
	HotC   float64 // °C, used for the resistance temperature dependence
}

// Voc returns the open-circuit voltage at the operating point.
func (s ModuleSpec) Voc(op OperatingPoint) float64 { return s.OpenCircuitVoltage(op.DeltaT) }

// R returns the internal resistance at the operating point.
func (s ModuleSpec) R(op OperatingPoint) float64 { return s.Resistance(op.HotC) }

// TerminalVoltage returns V(I) = Voc − I·R_teg at the operating point.
func (s ModuleSpec) TerminalVoltage(op OperatingPoint, current float64) float64 {
	return s.Voc(op) - current*s.R(op)
}

// PowerAtCurrent returns the power delivered at the given output current,
// P = V(I)·I. It goes negative when the module is driven past its
// short-circuit current or against its EMF.
func (s ModuleSpec) PowerAtCurrent(op OperatingPoint, current float64) float64 {
	return s.TerminalVoltage(op, current) * current
}

// PowerAtLoad returns the power dissipated in an external load R_load,
// Eq. (2) verbatim: I = E/(R_teg+R_load), P = I²·R_load.
func (s ModuleSpec) PowerAtLoad(op OperatingPoint, rLoad float64) (float64, error) {
	if rLoad < 0 {
		return 0, fmt.Errorf("teg: negative load resistance %g", rLoad)
	}
	i := s.Voc(op) / (s.R(op) + rLoad)
	return i * i * rLoad, nil
}

// MPP is a module maximum power point.
type MPP struct {
	Voltage float64 // V at the MPP (== Voc/2 for the linear model)
	Current float64 // A at the MPP (== Voc/(2·R_teg))
	Power   float64 // W at the MPP (== Voc²/(4·R_teg))
}

// MaxPowerPoint returns the module MPP at the operating point. For the
// linear Thevenin model the MPP is at half the open-circuit voltage
// (equivalently, matched load R_load = R_teg).
func (s ModuleSpec) MaxPowerPoint(op OperatingPoint) MPP {
	voc := s.Voc(op)
	r := s.R(op)
	return MPP{
		Voltage: voc / 2,
		Current: voc / (2 * r),
		Power:   voc * voc / (4 * r),
	}
}

// ShortCircuitCurrent returns Isc = Voc/R_teg.
func (s ModuleSpec) ShortCircuitCurrent(op OperatingPoint) float64 {
	return s.Voc(op) / s.R(op)
}

// CurvePoint is one sample of an I–V / P–V sweep.
type CurvePoint struct {
	Current float64 // A
	Voltage float64 // V
	Power   float64 // W
}

// Curve returns the I–V and P–V characteristic at the operating point,
// swept from open circuit (I=0) to short circuit in n uniform steps.
// This regenerates one trace of Fig. 1; the MPP lands at sample n/2.
func (s ModuleSpec) Curve(op OperatingPoint, n int) ([]CurvePoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("teg: curve needs at least 2 points, got %d", n)
	}
	if op.DeltaT < 0 || op.DeltaT > s.MaxDeltaT {
		return nil, fmt.Errorf("teg: ΔT %g K outside [0, %g]", op.DeltaT, s.MaxDeltaT)
	}
	isc := s.ShortCircuitCurrent(op)
	out := make([]CurvePoint, n)
	for k := range out {
		i := isc * float64(k) / float64(n-1)
		v := s.TerminalVoltage(op, i)
		out[k] = CurvePoint{Current: i, Voltage: v, Power: v * i}
	}
	return out, nil
}

// CurveFamily sweeps Curve over a set of ΔT values with the hot side at
// ambientC+ΔT, reproducing the Fig. 1 family ("I-V and P-V output
// characteristics of selected TEG module for different temperatures").
func (s ModuleSpec) CurveFamily(ambientC float64, deltaTs []float64, n int) (map[float64][]CurvePoint, error) {
	out := make(map[float64][]CurvePoint, len(deltaTs))
	for _, dT := range deltaTs {
		c, err := s.Curve(OperatingPoint{DeltaT: dT, HotC: ambientC + dT}, n)
		if err != nil {
			return nil, fmt.Errorf("teg: ΔT=%g: %w", dT, err)
		}
		out[dT] = c
	}
	return out, nil
}

// OpsFromTempsInto converts per-module hot-side temperatures (°C) and a
// common ambient (cold-side) temperature into operating points, the form
// consumed by the array and reconfiguration packages, writing into dst
// and reusing its backing storage when the capacity suffices. Hot-side
// readings below ambient clamp to zero ΔT (a module cannot harvest
// there, and the paper's ΔT(i) = T(i) − Tamb never goes negative on a
// running engine). The simulator and the controllers convert one
// temperature vector per control tick (and DNOR one per
// prediction-window step), so a reused scratch slice keeps that off the
// heap.
func OpsFromTempsInto(dst []OperatingPoint, hotC []float64, ambientC float64) []OperatingPoint {
	if cap(dst) < len(hotC) {
		dst = make([]OperatingPoint, len(hotC))
	}
	dst = dst[:len(hotC)]
	for i, h := range hotC {
		dT := h - ambientC
		if dT < 0 {
			dT = 0
		}
		dst[i] = OperatingPoint{DeltaT: dT, HotC: h}
	}
	return dst
}

// MatchedLoadEquivalence cross-checks the two formulations of Eq. (2):
// the power into a matched load equals the analytic MPP power. Exposed
// for tests and documentation; returns the relative discrepancy.
func (s ModuleSpec) MatchedLoadEquivalence(op OperatingPoint) float64 {
	pLoad, err := s.PowerAtLoad(op, s.R(op))
	if err != nil {
		return math.Inf(1)
	}
	pMPP := s.MaxPowerPoint(op).Power
	if pMPP == 0 {
		return 0
	}
	return math.Abs(pLoad-pMPP) / pMPP
}
