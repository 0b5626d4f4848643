package array

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"tegrecon/internal/teg"
	"tegrecon/internal/units"
)

// The per-module reference formulas the module table replaced: each
// re-derives the module's R and Voc from its operating point through
// the spec, as the simulator and the deciders did before the table.

func refMPPCurrent(a *Array, i int) float64 {
	if a.healthOf(i) != Healthy {
		return 0
	}
	return a.Spec.Voc(a.Ops[i]) / (2 * a.Spec.R(a.Ops[i]))
}

func refIdealPower(a *Array) float64 {
	sum := 0.0
	for i, op := range a.Ops {
		if a.healthOf(i) == Healthy {
			voc, r := a.Spec.Voc(op), a.Spec.R(op)
			sum += voc * voc / (4 * r)
		}
	}
	return sum
}

func refHeatInput(a *Array, currents []float64) float64 {
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
				q := a.Spec.ModuleSeebeck()*units.CToK(op.HotC)*im + kth*op.DeltaT - 0.5*im*im*a.Spec.R(op)
				total += q
			} else {
				total += kth * op.DeltaT
			}
		}
	}
	return total
}

// moduleTableCase builds an array from fuzz input: three bytes per
// module (a hot-side offset from ambient, 20 K below it to 230 K above,
// and a health code), at most 512 modules. odd attaches the health
// vector; otherwise every module is healthy and the array carries none.
func moduleTableCase(data []byte, ambientC float64, odd bool) *Array {
	n := min(len(data)/3, 512)
	hot := make([]float64, n)
	health := make([]ModuleHealth, n)
	for i := range hot {
		b := data[3*i:]
		hot[i] = ambientC - 20 + 250*float64(binary.LittleEndian.Uint16(b))/math.MaxUint16
		switch b[2] % 8 {
		case 6:
			health[i] = FailedOpen
		case 7:
			health[i] = FailedShort
		}
	}
	if !odd {
		health = nil
	}
	return &Array{Spec: teg.TGM199, Ops: teg.OpsFromTempsInto(nil, hot, ambientC), Health: health}
}

// FuzzModuleTable is the referee of the per-tick module table: over
// random hot-side temperatures, ambients and health mixes, every
// quantity read from the table — G and J, R and Voc, the MPP currents,
// the ideal power and the heat input at the module currents the
// simulator solves — is bit-equal (math.Float64bits) to the per-module
// reference that re-derives R and Voc from the operating point.
func FuzzModuleTable(f *testing.F) {
	f.Add([]byte{0x00, 0x80, 0, 0xff, 0xff, 1, 0x10, 0x00, 6, 0x00, 0x40, 7}, 25.0, int64(1))
	f.Add([]byte{0x34, 0x12, 0, 0x00, 0x00, 0, 0x99, 0x99, 6}, -10.0, int64(2))
	f.Add([]byte{0xaa, 0x55, 3, 0x55, 0xaa, 7, 0x01, 0x02, 6, 0x03, 0x04, 0}, 40.0, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, ambientC float64, seed int64) {
		a := moduleTableCase(data, ambientC, seed&1 == 1)
		if a.N() == 0 {
			return
		}
		var nt Norton
		a.NortonInto(&nt)
		impp := nt.MPPCurrentsInto(nil)
		for i, op := range a.Ops {
			g, j, _ := refContribution(a, i)
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"G", nt.G[i], g},
				{"J", nt.J[i], j},
				{"R", nt.R[i], a.Spec.R(op)},
				{"Voc", nt.Voc[i], a.Spec.Voc(op)},
				{"MPP current", impp[i], refMPPCurrent(a, i)},
			} {
				if !sameBits(c.got, c.want) {
					t.Fatalf("module %d (%v, %+v): %s %g, reference %g", i, a.healthOf(i), op, c.name, c.got, c.want)
				}
			}
		}
		if got, want := nt.IdealPower(), refIdealPower(a); !sameBits(got, want) {
			t.Fatalf("ideal power %g, reference %g", got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng, a.N())
		var eq Equivalent
		if err := nt.EquivalentInto(&eq, cfg); err != nil {
			t.Fatal(err)
		}
		iOuts := []float64{0, 3 * rng.Float64()}
		if !eq.Broken && eq.R > 0 {
			iOuts = append(iOuts, eq.MPP().Current)
		}
		var currents []float64
		for _, iOut := range iOuts {
			currents = nt.ModuleCurrentsInto(currents, eq, cfg, iOut)
			if got, want := a.thermalInput(&nt, currents), refHeatInput(a, currents); !sameBits(got, want) {
				t.Fatalf("I=%g: heat input %g, reference %g", iOut, got, want)
			}
		}
	})
}

func TestIdealPowerAdditive(t *testing.T) {
	a := &Array{Spec: teg.TGM199, Ops: uniformOps(1, 40)}
	b := &Array{Spec: teg.TGM199, Ops: uniformOps(1, 70)}
	both := &Array{Spec: teg.TGM199, Ops: append(uniformOps(1, 40), uniformOps(1, 70)...)}
	pa, pb, pab := a.norton().IdealPower(), b.norton().IdealPower(), both.norton().IdealPower()
	if math.Abs(pab-(pa+pb)) > 1e-12 {
		t.Errorf("ideal power not additive: %v + %v != %v", pa, pb, pab)
	}
}

func TestIdealPowerEmpty(t *testing.T) {
	if got := (&Array{Spec: teg.TGM199}).norton().IdealPower(); got != 0 {
		t.Errorf("empty ideal power = %v", got)
	}
}
