package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tegrecon/internal/array"
	"tegrecon/internal/teg"
)

// randomProfile draws a radiator-plausible temperature profile: a
// monotone-ish exponential decay with bounded noise, always above
// ambient.
func randomProfile(rng *rand.Rand) ([]float64, float64) {
	n := 20 + rng.Intn(120)
	ambient := 15 + rng.Float64()*20
	inlet := ambient + 40 + rng.Float64()*50
	tau := float64(n) * (0.15 + rng.Float64()*0.6)
	temps := make([]float64, n)
	floor := ambient + 5 + rng.Float64()*10
	for i := range temps {
		temps[i] = floor + (inlet-floor)*math.Exp(-float64(i)/tau) + rng.NormFloat64()*0.4
		if temps[i] < ambient {
			temps[i] = ambient
		}
	}
	return temps, ambient
}

// TestINORInvariantsProperty checks, over random profiles, that INOR's
// configuration (1) validates, (2) operates inside the converter window,
// (3) never reverse-drives a module at its operating point, and (4) never
// beats the physical ideal.
func TestINORInvariantsProperty(t *testing.T) {
	e := newEval(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		temps, ambient := randomProfile(rng)
		cfg, op, err := e.Configure(temps, ambient)
		if err != nil {
			return false
		}
		if cfg.Validate() != nil {
			return false
		}
		if op.Delivered == 0 {
			return true // dead/infeasible array parks safely
		}
		if op.Voltage < e.Conv.MinInput-1e-9 || op.Voltage > e.Conv.MaxInput+1e-9 {
			return false
		}
		if op.Reverse {
			return false
		}
		arr, err := array.New(e.Spec, teg.OpsFromTempsInto(nil, temps, ambient))
		if err != nil {
			return false
		}
		return op.Delivered <= tableOf(arr).IdealPower()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestINORBeatsUniformConfigsProperty checks that INOR's delivered power
// is at least that of every feasible uniform (baseline-style) grouping —
// the sense in which Algorithm 1 is "near-optimal".
func TestINORBeatsUniformConfigsProperty(t *testing.T) {
	e := newEval(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		temps, ambient := randomProfile(rng)
		_, op, err := e.Configure(temps, ambient)
		if err != nil {
			return false
		}
		arr, err := array.New(e.Spec, teg.OpsFromTempsInto(nil, temps, ambient))
		if err != nil {
			return false
		}
		for _, groups := range []int{5, 8, 10, 12, 16} {
			if groups > arr.N() {
				continue
			}
			ucfg, err := array.Uniform(arr.N(), groups)
			if err != nil {
				return false
			}
			uop, err := e.Best(arr, ucfg)
			if err != nil {
				return false
			}
			// Allow a whisker for the golden-section tolerance.
			if uop.Delivered > op.Delivered*1.002+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEHTRNeverMuchWorseThanINORProperty checks the EHTR reconstruction
// stays in INOR's delivered-power neighbourhood on random profiles (they
// search the same window with different partition strategies).
func TestEHTRNeverMuchWorseThanINORProperty(t *testing.T) {
	e := newEval(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		temps, ambient := randomProfile(rng)
		inor, err := NewINOR(e)
		if err != nil {
			return false
		}
		ehtr, err := NewEHTR(e)
		if err != nil {
			return false
		}
		di, err := inor.Decide(0, temps, ambient)
		if err != nil {
			return false
		}
		de, err := ehtr.Decide(0, temps, ambient)
		if err != nil {
			return false
		}
		if di.Expected == 0 && de.Expected == 0 {
			return true
		}
		ratio := de.Expected / di.Expected
		return ratio > 0.93 && ratio < 1.07
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGreedyPartitionInvariantProperty checks structural invariants of
// the Algorithm 1 partition on random MPP-current vectors.
func TestGreedyPartitionInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(200)
		groups := 1 + rng.Intn(20)
		if groups > n {
			groups = n
		}
		impp := make([]float64, n)
		for i := range impp {
			impp[i] = rng.Float64() * 2
		}
		starts, err := greedyPartition(impp, groups)
		if err != nil {
			return false
		}
		if len(starts) != groups || starts[0] != 0 {
			return false
		}
		for j := 1; j < groups; j++ {
			if starts[j] <= starts[j-1] || starts[j] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDNORNeverErrorsOnRandomSequencesProperty drives DNOR through random
// temperature sequences and checks it always produces valid decisions.
func TestDNORNeverErrorsOnRandomSequencesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newDNOR(t, 1+rng.Intn(5))
		temps, ambient := randomProfile(rng)
		for tick := 0; tick < 25; tick++ {
			// Drift the profile a little each tick.
			for i := range temps {
				temps[i] += rng.NormFloat64() * 0.3
				if temps[i] < ambient {
					temps[i] = ambient
				}
			}
			d, err := c.Decide(tick, temps, ambient)
			if err != nil {
				return false
			}
			if d.Config.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
