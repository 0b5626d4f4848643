package core

import (
	"math"
	"math/rand"
	"testing"

	"tegrecon/internal/drive"
	"tegrecon/internal/thermal"
)

// liveSequence is what an n-module session senses over the first ticks
// control periods (0.5 s) of WLTC: the default radiator's module
// temperatures plus 0.1 °C Gaussian sensor noise, and the air inlet as
// ambient.
func liveSequence(t *testing.T, rng *rand.Rand, n, ticks int) (temps [][]float64, ambientC []float64) {
	t.Helper()
	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), cycle.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	rad := thermal.DefaultRadiator()
	for k := 0; k < ticks; k++ {
		cond, err := drive.ConditionsAt(tr, tr.Times[0]+0.5*float64(k))
		if err != nil {
			t.Fatal(err)
		}
		row, err := rad.ModuleTempsInto(nil, cond, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range row {
			row[i] += 0.1 * rng.NormFloat64()
		}
		temps = append(temps, row)
		ambientC = append(ambientC, cond.AirInletC)
	}
	return temps, ambientC
}

// jumpingSequence draws ticks independent radiator-like profiles of n
// modules, each with its own ambient, inlet, floor and decay length, so
// last period's winner is often far from this period's or outside its
// window.
func jumpingSequence(rng *rand.Rand, n, ticks int) (temps [][]float64, ambientC []float64) {
	for k := 0; k < ticks; k++ {
		ambient := 15 + 20*rng.Float64()
		floor := ambient + 1 + 15*rng.Float64()
		inlet := floor + 10 + 70*rng.Float64()
		tau := float64(n) * (0.05 + 0.8*rng.Float64())
		row := decayTemps(n, inlet, floor, tau)
		for i := range row {
			row[i] += 0.4 * rng.NormFloat64()
		}
		temps = append(temps, row)
		ambientC = append(ambientC, ambient)
	}
	return temps, ambientC
}

// scratchOf returns the pricing scratch of a window-searching
// controller.
func scratchOf(t *testing.T, c Controller) *scratch {
	t.Helper()
	switch c := c.(type) {
	case *INOR:
		return c.sc
	case *EHTR:
		return c.sc
	case *DNOR:
		return c.sc
	}
	t.Fatalf("%s has no pricing scratch", c.Name())
	return nil
}

// sameDecision reports whether two decisions are identical: the same
// configuration, Expected bits, Switched flag and counted ComputeTime.
func sameDecision(a, b Decision) bool {
	return a.Config.Equal(b.Config) &&
		math.Float64bits(a.Expected) == math.Float64bits(b.Expected) &&
		a.Switched == b.Switched && a.ComputeTime == b.ComputeTime
}

// TestPricingHintInvisible: the group count a controller carries from
// one decision to the next only picks which candidate configureAt
// prices first, never the decision. INOR, EHTR and DNOR replay a live
// WLTC sequence and a sequence of unrelated profiles, carrying their
// hint and with it forced before every decision to the window's ends
// and to values outside it. Each must return, tick for tick, what the
// reference returns: a fresh INOR or EHTR per tick, and a DNOR whose
// hint is cleared before every decision. Reset must clear the hint.
// On the live sequence, INOR's and EHTR's carried hint must also price
// fewer candidates than the reference, which starts every decision at
// n̂.
func TestPricingHintInvisible(t *testing.T) {
	e := newEval(t)
	rng := rand.New(rand.NewSource(29))
	liveTemps, liveAmb := liveSequence(t, rng, 100, 240)
	jumpTemps, jumpAmb := jumpingSequence(rng, 60, 120)
	sequences := []struct {
		name     string
		temps    [][]float64
		ambientC []float64
	}{{"live", liveTemps, liveAmb}, {"jumping", jumpTemps, jumpAmb}}

	build := map[string]func() Controller{
		"INOR": func() Controller { c, _ := NewINOR(e); return c },
		"EHTR": func() Controller { c, _ := NewEHTR(e); return c },
		"DNOR": func() Controller { return newDNOR(t, 4) },
	}
	// force returns the hint to set before a decision on a tick whose
	// window is [nmin, nmax], or −1 to leave the carried hint alone.
	forces := []struct {
		name  string
		force func(nmin, nmax, n int) int
	}{
		{"carried", func(int, int, int) int { return -1 }},
		{"nmin", func(nmin, _, _ int) int { return nmin }},
		{"nmax", func(_, nmax, _ int) int { return nmax }},
		{"below", func(nmin, _, _ int) int { return nmin - 1 }},
		{"above", func(_, nmax, _ int) int { return nmax + 1 }},
		{"past N", func(_, _, n int) int { return n + 7 }},
	}
	for _, seq := range sequences {
		for _, scheme := range []string{"INOR", "EHTR", "DNOR"} {
			for _, f := range forces {
				ctrl := build[scheme]()
				sc := scratchOf(t, ctrl)
				ref := build[scheme]()
				hinted := 0 // decisions whose first candidate was the hint
				priced, refPriced := 0, 0
				for k, temps := range seq.temps {
					amb := seq.ambientC[k]
					nmin, nmax, _, err := e.groupWindow(tableOf(newArr(t, temps, amb)))
					if err != nil {
						t.Fatal(err)
					}
					if h := f.force(nmin, nmax, len(temps)); h >= 0 {
						sc.hint = h
					}
					if sc.hint >= nmin && sc.hint <= nmax {
						hinted++
					}
					if scheme == "DNOR" {
						scratchOf(t, ref).hint = 0
					} else {
						ref = build[scheme]()
					}
					got, err := ctrl.Decide(k, temps, amb)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.Decide(k, temps, amb)
					if err != nil {
						t.Fatal(err)
					}
					if !sameDecision(got, want) {
						t.Fatalf("%s %s hint %s tick %d: decision %+v, reference %+v", seq.name, scheme, f.name, k, got, want)
					}
					if scheme != "DNOR" {
						priced += sc.priced
						refPriced += scratchOf(t, ref).priced
					}
				}
				if seq.name == "live" && f.name == "carried" && scheme != "DNOR" && priced >= refPriced {
					t.Errorf("live %s: the carried hint priced %d candidates, starting at n̂ %d", scheme, priced, refPriced)
				}
				if hinted == 0 && (f.name == "carried" || f.name == "nmin" || f.name == "nmax") {
					t.Errorf("%s %s hint %s: no decision priced the hint first", seq.name, scheme, f.name)
				}
				ctrl.Reset()
				if sc.hint != 0 {
					t.Errorf("%s %s: Reset left hint %d", seq.name, scheme, sc.hint)
				}
			}
		}
	}
}
