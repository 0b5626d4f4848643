package core

import (
	"math"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/converter"
	"tegrecon/internal/predict"
	"tegrecon/internal/switchfab"
	"tegrecon/internal/teg"
)

// Configure runs one INOR pass (the pure function INOR(Ti) of
// Algorithm 1) and returns the winning configuration and its operating
// point. It allocates its own work state, which makes it the tests'
// one-off referee; the deciders (INOR and DNOR alike) run the identical
// search through their per-controller scratch.
func (e *Evaluator) Configure(tempsC []float64, ambientC float64) (array.Config, Operating, error) {
	return e.configureTempsAt(newScratch(e), tempsC, ambientC, false)
}

// decayTemps builds a radiator-like profile for n modules: inletC at the
// entrance decaying toward floorC.
func decayTemps(n int, inletC, floorC, tau float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = floorC + (inletC-floorC)*math.Exp(-float64(i)/tau)
	}
	return out
}

func newEval(t *testing.T) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(teg.TGM199, converter.LTM4607())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newArr(t *testing.T, temps []float64, ambient float64) *array.Array {
	t.Helper()
	a, err := array.New(teg.TGM199, teg.OpsFromTempsInto(nil, temps, ambient))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewEvaluatorValidation(t *testing.T) {
	bad := teg.TGM199
	bad.Couples = 0
	if _, err := NewEvaluator(bad, converter.LTM4607()); err == nil {
		t.Error("bad spec should error")
	}
	badConv := converter.LTM4607()
	badConv.OutputVoltage = 0
	if _, err := NewEvaluator(teg.TGM199, badConv); err == nil {
		t.Error("bad converter should error")
	}
}

func TestBestFindsDeliveredMaximum(t *testing.T) {
	e := newEval(t)
	arr := newArr(t, decayTemps(100, 92, 38, 30), 25)
	cfg, err := array.Uniform(100, 10)
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.Best(arr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if op.Delivered <= 0 {
		t.Fatalf("delivered %v", op.Delivered)
	}
	// Exhaustive scan cross-check.
	eq, _ := arr.Equivalent(cfg)
	isc := eq.Voc / eq.R
	best := 0.0
	for k := 0; k <= 20000; k++ {
		i := isc * float64(k) / 20000
		v := eq.VoltageAt(i)
		if p := e.Conv.OutputPower(v, v*i); p > best {
			best = p
		}
	}
	if op.Delivered < best*0.9999 {
		t.Errorf("Best %v below scan optimum %v", op.Delivered, best)
	}
	// Delivered never exceeds the raw array MPP.
	if op.Delivered > eq.MPP().Power {
		t.Errorf("delivered %v exceeds array MPP %v", op.Delivered, eq.MPP().Power)
	}
}

func TestBestZeroEMF(t *testing.T) {
	e := newEval(t)
	arr := newArr(t, []float64{25, 25, 25}, 25) // all at ambient
	op, err := e.Best(arr, array.AllParallel(3))
	if err != nil {
		t.Fatal(err)
	}
	if op.Delivered != 0 {
		t.Errorf("delivered %v from dead array", op.Delivered)
	}
}

func TestGroupWindowReasonable(t *testing.T) {
	e := newEval(t)
	arr := newArr(t, decayTemps(100, 92, 38, 30), 25)
	nmin, nmax, _, err := e.groupWindow(tableOf(arr))
	if err != nil {
		t.Fatal(err)
	}
	if nmin < 1 || nmax <= nmin || nmax > 100 {
		t.Errorf("window [%d, %d]", nmin, nmax)
	}
	// The 13.8 V target with ~1–1.5 V group MPP voltage needs roughly
	// 4–40 series groups.
	if nmin > 10 || nmax < 10 {
		t.Errorf("window [%d, %d] excludes plausible group counts", nmin, nmax)
	}
}

func TestGroupWindowDeadArray(t *testing.T) {
	e := newEval(t)
	arr := newArr(t, []float64{25, 25}, 25)
	if _, _, _, err := e.groupWindow(tableOf(arr)); err == nil {
		t.Error("dead array should have no window")
	}
}

// TestNonFiniteTemperaturesPark pins the refusal of non-finite sensed
// distributions: a NaN or +Inf module temperature, or a NaN ambient,
// parks INOR, DNOR and EHTR in the all-parallel configuration with no
// expected power, before any prefix sum or partition is built. The
// module table is built first: the group window is read from it.
func TestNonFiniteTemperaturesPark(t *testing.T) {
	e := newEval(t)
	if _, _, _, err := e.groupWindow(tableOf(newArr(t, []float64{90, math.NaN(), 70}, 25))); err == nil {
		t.Error("NaN temperature has a group window")
	}
	for _, tc := range []struct {
		name    string
		bad     float64 // replaces one module's temperature
		ambient float64
	}{
		{"NaN temperature", math.NaN(), 25},
		{"+Inf temperature", math.Inf(1), 25},
		{"NaN ambient", 70, math.NaN()},
	} {
		temps := decayTemps(60, 95, 45, 20)
		temps[17] = tc.bad
		for _, build := range []func() (Controller, *scratch){
			func() (Controller, *scratch) {
				c, err := NewINOR(e)
				if err != nil {
					t.Fatal(err)
				}
				return c, c.sc
			},
			func() (Controller, *scratch) { c := newDNOR(t, 4); return c, c.sc },
			func() (Controller, *scratch) {
				c, err := NewEHTR(e)
				if err != nil {
					t.Fatal(err)
				}
				return c, c.sc
			},
		} {
			c, sc := build()
			d, err := c.Decide(0, temps, tc.ambient)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, c.Name(), err)
			}
			if !d.Config.Equal(array.AllParallel(len(temps))) || d.Expected != 0 {
				t.Errorf("%s %s: decided %s expecting %g W, want the all-parallel park at 0 W", tc.name, c.Name(), d.Config, d.Expected)
			}
			if len(sc.prefix) != 0 || sc.priced != 0 {
				t.Errorf("%s %s: reached the partition (%d prefix sums, %d priced)", tc.name, c.Name(), len(sc.prefix), sc.priced)
			}
		}
	}
}

func TestINORBeatsBaseline(t *testing.T) {
	e := newEval(t)
	temps := decayTemps(100, 92, 38, 30)
	cfg, op, err := e.Configure(temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("INOR produced invalid config: %v", err)
	}
	arr := newArr(t, temps, 25)
	base, _ := array.Uniform(100, 10)
	baseOp, err := e.Best(arr, base)
	if err != nil {
		t.Fatal(err)
	}
	if op.Delivered <= baseOp.Delivered {
		t.Errorf("INOR %v W not better than 10×10 baseline %v W", op.Delivered, baseOp.Delivered)
	}
	// And close to ideal: the paper claims all modules near their MPPs.
	ideal := tableOf(arr).IdealPower()
	if op.Delivered < 0.80*ideal {
		t.Errorf("INOR delivered %v W < 80%% of ideal %v W", op.Delivered, ideal)
	}
}

func TestINORNearIdealOnUniformTemps(t *testing.T) {
	e := newEval(t)
	temps := make([]float64, 60)
	for i := range temps {
		temps[i] = 80
	}
	_, op, err := e.Configure(temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	arr := newArr(t, temps, 25)
	ideal := tableOf(arr).IdealPower()
	// Uniform temps: only converter loss separates INOR from ideal.
	if op.Delivered < 0.9*ideal {
		t.Errorf("uniform-temp INOR %v W below 90%% of ideal %v W", op.Delivered, ideal)
	}
}

func TestINORDeadArrayFallsBack(t *testing.T) {
	e := newEval(t)
	temps := []float64{25, 25, 25, 25}
	cfg, op, err := e.Configure(temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if op.Delivered != 0 {
		t.Errorf("dead array delivered %v", op.Delivered)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("fallback config invalid: %v", err)
	}
}

func TestINORControllerBookkeeping(t *testing.T) {
	e := newEval(t)
	c, err := NewINOR(e)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "INOR" {
		t.Error(c.Name())
	}
	temps := decayTemps(50, 90, 40, 15)
	d1, err := c.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Switched {
		t.Error("INOR must reprogram on every decision")
	}
	// Same temperatures → same config, but the fabric still reprograms
	// (the paper's "switch at every time point" behaviour).
	d2, err := c.Decide(1, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Switched {
		t.Error("INOR must reprogram even on identical temps")
	}
	if !d1.Config.Equal(d2.Config) {
		t.Error("configs differ on identical input")
	}
}

func TestNewINORNilEvaluator(t *testing.T) {
	if _, err := NewINOR(nil); err == nil {
		t.Error("nil evaluator should error")
	}
	if _, err := NewEHTR(nil); err == nil {
		t.Error("nil evaluator should error")
	}
}

func TestEHTRMatchesOrBeatsNothing(t *testing.T) {
	// EHTR (exhaustive partition) and INOR should deliver similar power
	// — within a couple percent on realistic profiles (Table I shows
	// INOR marginally ahead).
	e := newEval(t)
	temps := decayTemps(100, 92, 38, 30)
	inor, err := NewINOR(e)
	if err != nil {
		t.Fatal(err)
	}
	ehtr, err := NewEHTR(e)
	if err != nil {
		t.Fatal(err)
	}
	di, err := inor.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	de, err := ehtr.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	ratio := di.Expected / de.Expected
	if ratio < 0.97 || ratio > 1.05 {
		t.Errorf("INOR/EHTR delivered ratio %v outside [0.97, 1.05] (INOR %v, EHTR %v)", ratio, di.Expected, de.Expected)
	}
}

func TestStaticController(t *testing.T) {
	base, err := NewBaseline10x10(100)
	if err != nil {
		t.Fatal(err)
	}
	if base.Name() != "Baseline" {
		t.Error(base.Name())
	}
	temps := decayTemps(100, 90, 40, 25)
	d, err := base.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if d.Switched {
		t.Error("static baseline should never switch")
	}
	if d.Config.Groups() != 10 {
		t.Errorf("baseline groups = %d", d.Config.Groups())
	}
	if _, err := base.Decide(1, temps[:50], 25); err == nil {
		t.Error("temperature count mismatch should error")
	}
	base.Reset() // must not panic
}

func TestNewBaselineErrors(t *testing.T) {
	if _, err := NewBaseline10x10(5); err == nil {
		t.Error("too few modules should error")
	}
	if _, err := NewStatic("x", array.Config{N: 0}); err == nil {
		t.Error("invalid config should error")
	}
}

func TestNewStaticDefaultName(t *testing.T) {
	cfg, _ := array.Uniform(20, 4)
	s, err := NewStatic("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Baseline" {
		t.Error(s.Name())
	}
}

func newDNOR(t *testing.T, horizon int) *DNOR {
	t.Helper()
	mlr, err := predict.NewMLR(predict.DefaultMLROptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDNOR(newEval(t), DNOROptions{
		Predictor:    mlr,
		HorizonTicks: horizon,
		TickSeconds:  0.5,
		Overhead:     switchfab.DefaultOverhead(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDNOROptionsValidation(t *testing.T) {
	e := newEval(t)
	mlr, _ := predict.NewMLR(predict.DefaultMLROptions())
	cases := []DNOROptions{
		{Predictor: nil, HorizonTicks: 2, TickSeconds: 0.5},
		{Predictor: mlr, HorizonTicks: 0, TickSeconds: 0.5},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0.5, ExtraMargin: -1},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: math.NaN()},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: math.Inf(1)},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0.5, ExtraMargin: math.NaN()},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0.5, ExtraMargin: math.Inf(1)},
		{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0.5, ExtraMargin: math.Inf(-1)},
	}
	for i, o := range cases {
		if _, err := NewDNOR(e, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := NewDNOR(nil, DNOROptions{Predictor: mlr, HorizonTicks: 2, TickSeconds: 0.5}); err == nil {
		t.Error("nil evaluator should error")
	}
}

func TestDNORHoldsBetweenDecisions(t *testing.T) {
	c := newDNOR(t, 4)
	temps := decayTemps(60, 92, 40, 18)
	d0, err := c.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick < 5; tick++ {
		d, err := c.Decide(tick, temps, 25)
		if err != nil {
			t.Fatal(err)
		}
		if d.Switched {
			t.Fatalf("tick %d: DNOR switched off-period", tick)
		}
		if !d.Config.Equal(d0.Config) {
			t.Fatalf("tick %d: config changed off-period", tick)
		}
	}
}

func TestDNORHoldsUnderStableTemperatures(t *testing.T) {
	// With a constant temperature field, after the initial adoption
	// DNOR must never pay for a switch again.
	c := newDNOR(t, 4)
	temps := decayTemps(60, 92, 40, 18)
	switches := 0
	for tick := 0; tick < 60; tick++ {
		d, err := c.Decide(tick, temps, 25)
		if err != nil {
			t.Fatal(err)
		}
		if d.Switched {
			switches++
		}
	}
	if switches > 1 {
		t.Errorf("DNOR switched %d times on a constant field", switches)
	}
}

func TestDNORSwitchesOnLargeShift(t *testing.T) {
	// A drastic thermal shift must eventually trigger a switch despite
	// the overhead charge.
	c := newDNOR(t, 2)
	cold := decayTemps(60, 70, 35, 40) // mild, flat profile
	hot := decayTemps(60, 105, 40, 10) // steep, hot profile
	for tick := 0; tick < 12; tick++ {
		if _, err := c.Decide(tick, cold, 25); err != nil {
			t.Fatal(err)
		}
	}
	switched := false
	for tick := 12; tick < 36; tick++ {
		d, err := c.Decide(tick, hot, 25)
		if err != nil {
			t.Fatal(err)
		}
		if d.Switched {
			switched = true
			break
		}
	}
	if !switched {
		t.Error("DNOR never adapted to a drastic thermal shift")
	}
}

func TestDNORResetClearsState(t *testing.T) {
	c := newDNOR(t, 3)
	temps := decayTemps(40, 90, 40, 12)
	if _, err := c.Decide(0, temps, 25); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	d, err := c.Decide(0, temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Switched {
		t.Error("post-reset first decision should switch")
	}
}

// TestDNORResetReplaysAFreshController: Reset forgets the predictor's
// history too, so a reused controller repeats a fresh one's decisions
// and priced runtimes tick for tick.
func TestDNORResetReplaysAFreshController(t *testing.T) {
	run := func(c *DNOR) []Decision {
		var out []Decision
		for tick := 0; tick < 24; tick++ {
			d, err := c.Decide(tick, decayTemps(40, 90-0.5*float64(tick), 40, 12), 25)
			if err != nil {
				t.Fatal(err)
			}
			d.Config.Starts = append([]int(nil), d.Config.Starts...)
			out = append(out, d)
		}
		return out
	}
	reused := newDNOR(t, 3)
	run(reused)
	reused.Reset()
	got, want := run(reused), run(newDNOR(t, 3))
	for i := range want {
		if !got[i].Config.Equal(want[i].Config) || got[i].Expected != want[i].Expected ||
			got[i].Switched != want[i].Switched || got[i].ComputeTime != want[i].ComputeTime {
			t.Fatalf("tick %d after Reset: %+v, fresh %+v", i, got[i], want[i])
		}
	}
}

func TestDNORNameAndPeriod(t *testing.T) {
	c := newDNOR(t, 4)
	if c.Name() != "DNOR" {
		t.Error(c.Name())
	}
	if c.period() != 5 {
		t.Errorf("period = %d, want 5", c.period())
	}
}

// truthRows is a slice-backed predict.Truth.
type truthRows [][]float64

func (r truthRows) Len() int                       { return len(r) }
func (r truthRows) Temps(k int) ([]float64, error) { return append([]float64(nil), r[k]...), nil }

func TestDNORWithOraclePredictor(t *testing.T) {
	// The oracle variant must also run cleanly — used by the ablation.
	truth := make([][]float64, 40)
	for i := range truth {
		truth[i] = decayTemps(30, 90+3*math.Sin(float64(i)/5), 40, 12)
	}
	oracle, err := predict.NewOracle(truthRows(truth))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewDNOR(newEval(t), DNOROptions{
		Predictor:    oracle,
		HorizonTicks: 3,
		TickSeconds:  0.5,
		Overhead:     switchfab.DefaultOverhead(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick, temps := range truth {
		if _, err := c.Decide(tick, temps, 25); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
}

func TestConfigureProducesFeasibleVoltage(t *testing.T) {
	// INOR's winning configuration must put the array MPP voltage
	// inside the converter's input window — the whole point of the
	// [nmin, nmax] search.
	e := newEval(t)
	temps := decayTemps(100, 92, 38, 30)
	cfg, op, err := e.Configure(temps, 25)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg
	if op.Voltage < e.Conv.MinInput-1e-9 || op.Voltage > e.Conv.MaxInput+1e-9 {
		t.Errorf("operating voltage %v outside converter window", op.Voltage)
	}
	if op.Reverse {
		t.Error("INOR chose a reverse-current configuration")
	}
}
