package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/drive"
	"tegrecon/internal/predict"
	"tegrecon/internal/switchfab"
	"tegrecon/internal/thermal"
)

// refereeModules is the array size the exhaustive referee runs at: its
// 2^15 consecutive-group configurations price in about 0.1 s.
const refereeModules = 16

// snapshot is one sensed temperature distribution with its ambient.
type snapshot struct {
	name     string
	tempsC   []float64
	ambientC float64
}

// cycleSnapshots samples per live distributions from each registered
// drive cycle: the default radiator's n module temperatures at evenly
// spaced instants of the cycle, with the air inlet as ambient.
func cycleSnapshots(t *testing.T, n, per int) []snapshot {
	t.Helper()
	rad := thermal.DefaultRadiator()
	var out []snapshot
	for _, cy := range drive.Cycles() {
		tr, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), cy.Schedule())
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < per; k++ {
			at := tr.Times[0] + tr.Duration()*float64(k+1)/float64(per+1)
			cond, err := drive.ConditionsAt(tr, at)
			if err != nil {
				t.Fatal(err)
			}
			temps, err := rad.ModuleTempsInto(nil, cond, n)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, snapshot{fmt.Sprintf("%s@%.0fs", cy.Name, at), temps, cond.AirInletC})
		}
	}
	return out
}

// decaySnapshots draws count radiator-like decay profiles of n modules
// at 25 °C ambient: inlet 55–95 °C decaying toward a 28–45 °C floor
// over 0.1–1 array lengths, the cool end reaching down to the
// converter's low-voltage edge.
func decaySnapshots(n, count int) []snapshot {
	rng := rand.New(rand.NewSource(16))
	out := make([]snapshot, count)
	for k := range out {
		inlet := 55 + 40*rng.Float64()
		floor := 28 + 17*rng.Float64()
		tau := float64(n) * (0.1 + 0.9*rng.Float64())
		out[k] = snapshot{fmt.Sprintf("decay %.1f→%.1f τ=%.1f", inlet, floor, tau), decayTemps(n, inlet, floor, tau), 25}
	}
	return out
}

// exhaustiveOptimum prices every consecutive-group configuration of arr
// — each of the 2^(N−1) ways to cut N modules into runs — with
// Evaluator.Best and returns the largest delivered power.
func exhaustiveOptimum(t *testing.T, e *Evaluator, arr *array.Array) float64 {
	t.Helper()
	n := arr.N()
	best := 0.0
	starts := make([]int, 0, n)
	for cuts := 0; cuts < 1<<(n-1); cuts++ {
		starts = append(starts[:0], 0)
		for i := 1; i < n; i++ {
			if cuts&(1<<(i-1)) != 0 {
				starts = append(starts, i)
			}
		}
		op, err := e.Best(arr, array.Config{N: n, Starts: starts})
		if err != nil {
			t.Fatal(err)
		}
		best = math.Max(best, op.Delivered)
	}
	return best
}

// refereeFloors are the least delivered/optimum ratios a scheme may
// reach on one snapshot set: the mean over every snapshot, and over
// the -short subset (a subset's mean is not bounded by the set's), the
// worst over the snapshots it runs on, and how many it may park on.
type refereeFloors struct {
	mean, shortMean, worst float64
	parked                 int
}

// TestDecisionsAgainstExhaustiveOptimum is the near-optimality referee:
// on live snapshots of every registered drive cycle and on decay
// profiles, at N = 16, each scheme's configuration is priced with
// Evaluator.Best and divided by the best delivered power any
// consecutive-group configuration reaches. The floors sit just under
// the measured ratios, so a change that quietly makes a decision worse
// fails here. DNOR is checked on its reconfigure path: a fresh
// controller's first decision adopts its INOR candidate. -short runs
// every fourth snapshot.
//
// A scheme parks (all-parallel, delivering nothing) when the mean
// module's MPP voltage puts even N series groups under the converter's
// 4.5 V floor, yet a configuration run below its MPP current can still
// clear the floor: the optimum is then positive and the ratio 0. Two
// of the 24 live snapshots (delivery at 160 s and 480 s, mean module
// 34 °C) park; the floors count them instead of leaving them out.
func TestDecisionsAgainstExhaustiveOptimum(t *testing.T) {
	e := newEval(t)
	newDNOR := func() (Controller, error) {
		mlr, err := predict.NewMLR(predict.DefaultMLROptions())
		if err != nil {
			return nil, err
		}
		return NewDNOR(e, DNOROptions{Predictor: mlr, HorizonTicks: 4, TickSeconds: 0.5, Overhead: switchfab.DefaultOverhead()})
	}
	schemes := []struct {
		name          string
		build         func() (Controller, error)
		cycles, decay refereeFloors
	}{
		// Measured: INOR and DNOR 0.8109 mean (0.7857 -short), 0.5788
		// worst on cycles, 0.9826 (0.9699) and 0.8196 on decay; EHTR
		// 0.8313 (0.8011), 0.5983, 0.9876 (0.9763) and 0.8443.
		{"INOR", func() (Controller, error) { return NewINOR(e) }, refereeFloors{0.810, 0.785, 0.578, 2}, refereeFloors{0.982, 0.969, 0.819, 0}},
		{"EHTR", func() (Controller, error) { return NewEHTR(e) }, refereeFloors{0.831, 0.801, 0.598, 2}, refereeFloors{0.987, 0.976, 0.844, 0}},
		{"DNOR", newDNOR, refereeFloors{0.810, 0.785, 0.578, 2}, refereeFloors{0.982, 0.969, 0.819, 0}},
	}
	for _, set := range []struct {
		name  string
		shots []snapshot
	}{
		{"cycles", cycleSnapshots(t, refereeModules, 4)},
		{"decay", decaySnapshots(refereeModules, 24)},
	} {
		shots := set.shots
		if testing.Short() {
			shots = nil
			for k := 0; k < len(set.shots); k += 4 {
				shots = append(shots, set.shots[k])
			}
		}
		got := make([]refereeFloors, len(schemes))
		for i := range got {
			got[i].worst = math.Inf(1)
		}
		for _, s := range shots {
			arr := newArr(t, s.tempsC, s.ambientC)
			opt := exhaustiveOptimum(t, e, arr)
			if opt <= 0 {
				t.Fatalf("%s: no configuration delivers power", s.name)
			}
			for i, sch := range schemes {
				c, err := sch.build()
				if err != nil {
					t.Fatal(err)
				}
				d, err := c.Decide(0, s.tempsC, s.ambientC)
				if err != nil {
					t.Fatalf("%s %s: %v", sch.name, s.name, err)
				}
				op, err := e.Best(arr, d.Config)
				if err != nil {
					t.Fatal(err)
				}
				r := op.Delivered / opt
				if r > 1 {
					t.Errorf("%s %s: delivers %.6g W, above the exhaustive optimum %.6g W", sch.name, s.name, op.Delivered, opt)
				}
				got[i].mean += r / float64(len(shots))
				if r == 0 {
					got[i].parked++
				} else {
					got[i].worst = math.Min(got[i].worst, r)
				}
			}
		}
		for i, sch := range schemes {
			g, floor := got[i], sch.cycles
			if set.name == "decay" {
				floor = sch.decay
			}
			t.Logf("%s on %d %s snapshots: mean %.4f, worst running %.4f of optimum, %d parked", sch.name, len(shots), set.name, g.mean, g.worst, g.parked)
			meanFloor := floor.mean
			if testing.Short() {
				meanFloor = floor.shortMean
			}
			if g.mean < meanFloor {
				t.Errorf("%s on %s: mean %.4f of optimum, below the %.4f floor", sch.name, set.name, g.mean, meanFloor)
			}
			if g.worst < floor.worst {
				t.Errorf("%s on %s: worst %.4f of optimum, below the %.4f floor", sch.name, set.name, g.worst, floor.worst)
			}
			if g.parked > floor.parked {
				t.Errorf("%s on %s: parked on %d snapshots, more than %d", sch.name, set.name, g.parked, floor.parked)
			}
		}
	}
}
