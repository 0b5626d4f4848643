package array

import (
	"fmt"
	"math"

	"tegrecon/internal/teg"
)

// GroupEquivalent is the Thevenin equivalent of one parallel group:
// output voltage V(I) = Voc − I·R for the group as a two-terminal source.
type GroupEquivalent struct {
	Voc float64 // equivalent open-circuit voltage, V
	R   float64 // equivalent source resistance, Ω
}

// Equivalent is the Thevenin equivalent of a whole configuration: the
// series chain of group equivalents plus per-group data needed to
// recover module currents. Broken reports that some series group has no
// conducting module at all (every member failed open), interrupting the
// whole chain.
type Equivalent struct {
	Voc    float64 // Σ group Voc, V
	R      float64 // Σ group R, Ω
	Broken bool
	Groups []GroupEquivalent
}

// Array binds a module spec to the per-module thermal operating points
// and answers electrical questions about configurations. It is a value
// type: build one per control step from the freshly sensed temperatures.
// Health, when non-nil, carries per-module failure states (see
// health.go); nil means all modules healthy.
type Array struct {
	Spec   teg.ModuleSpec
	Ops    []teg.OperatingPoint
	Health []ModuleHealth
}

// New assembles an Array after validating the spec.
func New(spec teg.ModuleSpec, ops []teg.OperatingPoint) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("array: no operating points")
	}
	return &Array{Spec: spec, Ops: ops}, nil
}

// N returns the module count.
func (a *Array) N() int { return len(a.Ops) }

// Equivalent computes the Thevenin equivalent of cfg.
//
// Modules of a group share their terminal voltage V_g; solving the node
// equation Σᵢ (Voc,i − V_g)/Rᵢ = I gives
//
//	V_g(I) = (Σ Voc,i/Rᵢ − I) / (Σ 1/Rᵢ)
//
// i.e. Voc_g = (Σ Voc,i/Rᵢ)/(Σ 1/Rᵢ) and R_g = 1/(Σ 1/Rᵢ). Groups in
// series add voltages and resistances.
func (a *Array) Equivalent(cfg Config) (Equivalent, error) {
	var eq Equivalent
	if err := a.EquivalentInto(&eq, cfg); err != nil {
		return Equivalent{}, err
	}
	return eq, nil
}

// EquivalentInto is Equivalent assembled in place: dst's Groups backing
// storage is reused when its capacity suffices, and every other field is
// overwritten. It derives the Norton pairs afresh on every call; a
// caller pricing many configurations on one temperature distribution
// builds them once with NortonInto and asks Norton.EquivalentInto
// instead. On error dst is left in an unspecified state.
func (a *Array) EquivalentInto(dst *Equivalent, cfg Config) error {
	return a.norton().EquivalentInto(dst, cfg)
}

// Norton is the per-tick module table: every module's internal
// resistance R[i] (teg.ModuleSpec.Resistance at its hot side) and EMF
// Voc[i] = α·ΔTᵢ at one temperature distribution, derived once, and the
// Norton pair built from them: G[i] = 1/Rᵢ and J[i] = Voc,i/Rᵢ. R and
// Voc are the healthy module's whatever its health; G and J honour it:
// a failed-short module is (1/R_short, 0) and a failed-open one (0, 0),
// so the group sums need no health branch: adding +0 leaves a sum
// bit-unchanged. The table depends only on the operating points and
// health, not on the configuration, so the deciders fill one per
// sensed distribution and price every candidate group count against
// it, and the simulator reads the tick's ideal power and heat input
// from the one it priced the decided configuration with.
type Norton struct {
	G   []float64 // module conductance 1/R, S
	J   []float64 // module source term Voc/R, A
	R   []float64 // module internal resistance, Ω
	Voc []float64 // module open-circuit voltage, V

	health []ModuleHealth // the array's health vector, nil when all healthy
}

// NortonInto writes the module table of a into dst, reusing its backing
// storage when the capacity suffices. It is the one per-module pass
// over the operating points: each module's R and Voc are derived here
// and every other per-module quantity of the tick reads them.
func (a *Array) NortonInto(dst *Norton) {
	n := a.N()
	dst.G, dst.J = resize(dst.G, n), resize(dst.J, n)
	dst.R, dst.Voc = resize(dst.R, n), resize(dst.Voc, n)
	dst.health = a.Health
	alpha := a.Spec.ModuleSeebeck()
	ops := a.Ops
	gs, js, rs, vs := dst.G[:len(ops)], dst.J[:len(ops)], dst.R[:len(ops)], dst.Voc[:len(ops)]
	for i, op := range ops {
		r, voc := a.Spec.Resistance(op.HotC), alpha*op.DeltaT
		rs[i], vs[i] = r, voc
		switch a.healthOf(i) {
		case FailedOpen:
			gs[i], js[i] = 0, 0
		case FailedShort:
			gs[i], js[i] = 1/shortResistance, 0
		default:
			gs[i], js[i] = 1/r, voc/r
		}
	}
}

// resize returns s with length n, reusing its backing storage when the
// capacity suffices.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// healthy reports whether module i of the table's array is healthy.
func (nt *Norton) healthy(i int) bool {
	return nt.health == nil || nt.health[i] == Healthy
}

// MPPCurrentsInto writes I_MPP,i = Voc,i/(2·Rᵢ) for every module — the
// input to Algorithm 1 — into dst, reusing its backing storage when the
// capacity suffices. Failed modules contribute zero (they cannot source
// current at any operating point).
func (nt *Norton) MPPCurrentsInto(dst []float64) []float64 {
	dst = resize(dst, nt.N())
	for i, voc := range nt.Voc {
		if nt.healthy(i) {
			dst[i] = voc / (2 * nt.R[i])
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// IdealPower returns P_ideal = Σ module MPP powers Voc²/(4·R) over the
// healthy modules, in module order (Fig. 7 normaliser: "assuming all
// modules working at their MPPs").
func (nt *Norton) IdealPower() float64 {
	sum := 0.0
	for i, voc := range nt.Voc {
		if nt.healthy(i) {
			sum += voc * voc / (4 * nt.R[i])
		}
	}
	return sum
}

// norton returns freshly built Norton pairs of a for the one-off
// callers that do not keep them.
func (a *Array) norton() *Norton {
	nt := &Norton{}
	a.NortonInto(nt)
	return nt
}

// N returns the module count the pairs were built for.
func (nt *Norton) N() int { return len(nt.G) }

// EquivalentInto is Array.EquivalentInto over precomputed Norton pairs.
func (nt *Norton) EquivalentInto(dst *Equivalent, cfg Config) error {
	if cfg.N != nt.N() {
		return fmt.Errorf("array: config for %d modules applied to %d", cfg.N, nt.N())
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Groups()
	if cap(dst.Groups) < n {
		dst.Groups = make([]GroupEquivalent, n)
	}
	dst.Groups = dst.Groups[:n]
	dst.Voc, dst.R, dst.Broken = 0, 0, false
	for j := range dst.Groups {
		lo, hi := cfg.GroupBounds(j)
		// Sum in module order; a failed-open pair adds +0, which
		// leaves both sums bit-equal to skipping the module.
		sumG, sumJ := 0.0, 0.0 // Σ 1/R, Σ Voc/R
		gs, js := nt.G[lo:hi], nt.J[lo:hi]
		js = js[:len(gs)]
		for m, g := range gs {
			sumG += g
			sumJ += js[m]
		}
		if sumG == 0 {
			// Every module of the group failed open: the series chain
			// is interrupted and the array cannot deliver current.
			dst.Broken = true
			dst.Voc = 0
			dst.R = 0
			return nil
		}
		g := GroupEquivalent{Voc: sumJ / sumG, R: 1 / sumG}
		dst.Groups[j] = g
		dst.Voc += g.Voc
		dst.R += g.R
	}
	return nil
}

// VoltageAt returns the array terminal voltage at output current i.
func (e Equivalent) VoltageAt(i float64) float64 { return e.Voc - i*e.R }

// PowerAt returns the array output power at output current i.
func (e Equivalent) PowerAt(i float64) float64 { return e.VoltageAt(i) * i }

// MPP returns the unconstrained array maximum power point
// (I = Voc/2R, P = Voc²/4R).
func (e Equivalent) MPP() teg.MPP {
	return teg.MPP{
		Voltage: e.Voc / 2,
		Current: e.Voc / (2 * e.R),
		Power:   e.Voc * e.Voc / (4 * e.R),
	}
}

// ModuleCurrentsInto writes the current through every module when the
// array delivers output current iOut under cfg into dst, reusing its
// backing storage when the capacity suffices. It reads precomputed
// Norton pairs and an already computed Equivalent of cfg: within group
// j module m carries J[m] − V_g·G[m] with V_g = Voc_g − iOut·R_g, so
// failed-open modules (G = 0) carry exactly zero and failed-short ones
// sink −V_g/R_short. A broken chain (see Equivalent.Broken) carries
// zero everywhere.
func (nt *Norton) ModuleCurrentsInto(dst []float64, eq Equivalent, cfg Config, iOut float64) []float64 {
	n := nt.N()
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	for i := range out {
		out[i] = 0
	}
	if eq.Broken {
		return out
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for m := lo; m < hi; m++ {
			if nt.G[m] != 0 {
				out[m] = nt.J[m] - vg*nt.G[m]
			}
		}
	}
	return out
}

// HasReverseCurrentAt reports whether any module would be driven below
// zero current (absorbing power — the failure mode of Fig. 3) when the
// array delivers iOut under cfg, over precomputed Norton pairs and an
// already computed Equivalent of cfg — the candidate check of the
// deciders. It needs no module-current scratch: each module current
// J[m] − V_g·G[m] is checked on the fly. A failed-open module's
// 0 − V_g·0 is never below the tolerance, so it needs no branch.
func (nt *Norton) HasReverseCurrentAt(eq Equivalent, cfg Config, iOut float64) bool {
	if eq.Broken {
		return false
	}
	for j, g := range eq.Groups {
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		gs, js := nt.G[lo:hi], nt.J[lo:hi]
		gs = gs[:len(js)]
		for m, jm := range js {
			if jm-vg*gs[m] < -1e-9 {
				return true
			}
		}
	}
	return false
}

// EnergyConservationCheck verifies that at output current iOut the
// power the array delivers under cfg equals Σ module V·I (parallel
// wiring is lossless in this model). eq is cfg's equivalent over the
// table. It writes the module currents into currents, as
// ModuleCurrentsInto does, and returns them with the relative
// discrepancy; used by tests and the simulator's self-check mode.
func (nt *Norton) EnergyConservationCheck(eq Equivalent, cfg Config, iOut float64, currents []float64) ([]float64, float64) {
	currents = nt.ModuleCurrentsInto(currents, eq, cfg, iOut)
	if eq.Broken {
		return currents, 0
	}
	sum := 0.0
	for j, g := range eq.Groups {
		// Each conducting module's terminal sits at its group voltage;
		// failed-short modules therefore contribute negative power.
		vg := g.Voc - iOut*g.R
		lo, hi := cfg.GroupBounds(j)
		for _, im := range currents[lo:hi] {
			sum += vg * im
		}
	}
	pArr := eq.PowerAt(iOut)
	scale := math.Max(math.Abs(pArr), 1e-9)
	return currents, math.Abs(sum-pArr) / scale
}
