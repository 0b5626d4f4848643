package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tegrecon/internal/array"
	"tegrecon/internal/predict"
	"tegrecon/internal/switchfab"
)

// workTestTemps is the decision input of the pinned counts: a radiator
// decay at N modules.
func workTestTemps(n int) []float64 { return decayTemps(n, 90, 40, float64(n)/3) }

// workUnits inverts workTime up to its truncation, for failure messages.
func workUnits(d time.Duration) int64 { return int64(math.Round(float64(d) / workUnitNs)) }

// TestWorkCountsPinned pins every scheme's closed-form runtime count
// at two array sizes on a fixed profile. The counts are a model of the
// published algorithms, so a kernel that reaches the same decision
// with less work must leave every number here unchanged; moving one is
// a deliberate change of the physics. DNOR is pinned on a holding tick
// and on a full decision tick with a ready MLR.
func TestWorkCountsPinned(t *testing.T) {
	for _, c := range []struct {
		n                    int
		inor, ehtr           int64
		dnorHold, dnorDecide int64
	}{
		{100, 3400, 128486, 100, 12450},
		{500, 17500, 4416139, 500, 39250},
	} {
		temps := workTestTemps(c.n)
		e := newEval(t)
		inor, _ := NewINOR(e)
		ehtr, _ := NewEHTR(e)
		base, err := NewBaseline10x10(c.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			ctrl Controller
			want int64
		}{{inor, c.inor}, {ehtr, c.ehtr}, {base, 0}} {
			d, err := s.ctrl.Decide(0, temps, 25)
			if err != nil {
				t.Fatal(err)
			}
			if d.ComputeTime != workTime(s.want) {
				t.Errorf("N=%d %s: ComputeTime %v (≈%d units), want %d units (%v)", c.n, s.ctrl.Name(), d.ComputeTime, workUnits(d.ComputeTime), s.want, workTime(s.want))
			}
		}

		d := newDNOR(t, 4)
		for tick := 0; tick <= 10; tick++ {
			drifted := make([]float64, c.n)
			for i, v := range temps {
				drifted[i] = v - 0.05*float64(tick)
			}
			dec, err := d.Decide(tick, drifted, 25)
			if err != nil {
				t.Fatal(err)
			}
			want, what := int64(-1), ""
			switch tick {
			case 9:
				want, what = c.dnorHold, "holding"
			case 10:
				want, what = c.dnorDecide, "decision"
			}
			if want >= 0 && dec.ComputeTime != workTime(want) {
				t.Errorf("N=%d DNOR %s tick: ComputeTime %v (≈%d units), want %d units (%v)", c.n, what, dec.ComputeTime, workUnits(dec.ComputeTime), want, workTime(want))
			}
		}
	}
}

// TestFullScanDPWorkCountsTheNaiveTable: the closed form equals the
// evaluations the full-scan table actually makes, for every row count.
func TestFullScanDPWorkCountsTheNaiveTable(t *testing.T) {
	for _, nMod := range []int{1, 2, 7, 40} {
		p := prefixSums(decayTemps(nMod, 90, 40, 10))
		for nmax := 1; nmax <= nMod; nmax++ {
			if _, evals := naiveChoiceTable(p, nmax); fullScanDPWork(nMod, nmax) != evals {
				t.Fatalf("N=%d nmax=%d: closed form %d, table made %d evaluations", nMod, nmax, fullScanDPWork(nMod, nmax), evals)
			}
		}
	}
}

// TestComputeTimeMatchesUnprunedReference: running the same decision
// through the unpruned references — every candidate priced by
// bestAtUnpruned, EHTR's partitions from the full-scan naiveChoiceTable
// — and tallying the work they literally do gives exactly the
// controllers' ComputeTime. So no pruning, present or future, can move
// the runtime a decision is charged.
func TestComputeTimeMatchesUnprunedReference(t *testing.T) {
	e := newEval(t)
	rng := rand.New(rand.NewSource(5))
	ref := newScratch(e)
	inor, _ := NewINOR(e)
	ehtr, _ := NewEHTR(e)
	for trial := 0; trial < 40; trial++ {
		temps, ambient := randomProfile(rng)
		arr := newArr(t, temps, ambient)
		for _, c := range []struct {
			ctrl       Controller
			exhaustive bool
		}{{inor, false}, {ehtr, true}} {
			d, err := c.ctrl.Decide(trial, temps, ambient)
			if err != nil {
				t.Fatal(err)
			}
			starts, _, _, work, err := configureAtUnpruned(e, ref, arr, c.exhaustive)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Config.Equal(array.Config{N: arr.N(), Starts: starts}) {
				t.Fatalf("trial %d %s: decision differs from the reference", trial, c.ctrl.Name())
			}
			if d.ComputeTime != workTime(work) {
				t.Fatalf("trial %d %s: ComputeTime %v, reference tally %d units (%v)", trial, c.ctrl.Name(), d.ComputeTime, work, workTime(work))
			}
		}
	}

	// DNOR's decision tick: the predictor's closed forms, INOR's
	// reference tally and the 2·(tp+1) window pricings of N units.
	const horizon = 4
	mlr, err := predict.NewMLR(predict.DefaultMLROptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDNOR(e, DNOROptions{Predictor: mlr, HorizonTicks: horizon, TickSeconds: 0.5, Overhead: switchfab.DefaultOverhead()})
	if err != nil {
		t.Fatal(err)
	}
	temps, ambient := randomProfile(rng)
	for tick := 0; tick <= 3*(horizon+1); tick++ {
		drifted := make([]float64, len(temps))
		for i, v := range temps {
			drifted[i] = v + rng.NormFloat64()*0.2
		}
		dec, err := d.Decide(tick, drifted, ambient)
		if err != nil {
			t.Fatal(err)
		}
		if tick%(horizon+1) != 0 || !mlr.Ready() || tick == 0 {
			continue
		}
		observe, fit := mlr.Work(horizon)
		_, _, _, work, err := configureAtUnpruned(e, ref, newArr(t, drifted, ambient), false)
		if err != nil {
			t.Fatal(err)
		}
		want := observe + fit + work + 2*(horizon+1)*int64(len(temps))
		if dec.ComputeTime != workTime(want) {
			t.Fatalf("DNOR tick %d: ComputeTime %v, reference tally %d units (%v)", tick, dec.ComputeTime, want, workTime(want))
		}
	}
}
