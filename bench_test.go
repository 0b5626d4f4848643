// Benchmark harness: the figures of the paper (the internal/experiments
// package doc indexes the experiments and their Ext- labels) and
// micro-benchmarks of the algorithmic kernels that cmd/tegbench has no
// suite for. Table I, a session step and a decision at every scheme and
// array size are tegbench suites only; tegbench times a decision on
// live-replayed WLTC temperatures. Run with:
//
//	go test -bench=. -benchmem
package tegrecon

import (
	"context"
	"math"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/predict"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
	"tegrecon/internal/trace"
)

// benchTrace synthesizes the paper's drive cut to seconds, so each
// benchmark iteration stays tractable.
func benchTrace(b *testing.B, seconds float64) *trace.Trace {
	b.Helper()
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = seconds
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkFig1ModuleCurves regenerates the Fig. 1 I–V / P–V family.
func BenchmarkFig1ModuleCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1ModuleCurves(teg.TGM199, 25, 101); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Prediction regenerates the Fig. 5 MLR/BPNN/SVR error
// comparison over a 120 s excerpt.
func BenchmarkFig5Prediction(b *testing.B) {
	truth := sim.TempSequence{Sys: sim.DefaultSystem(), Trace: benchTrace(b, 120), TickSeconds: sim.DefaultOptions().TickSeconds}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5PredictionError(truth, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PowerSeries regenerates the Fig. 6 four-scheme power
// series: the Table I cells over a 160 s drive, cut to the 120 s window.
func BenchmarkFig6PowerSeries(b *testing.B) {
	m := &scenario.Matrix{Cycles: []scenario.CycleSpec{{Synth: &scenario.SynthSpec{DurationS: 160}}}, Schemes: experiments.TableISchemes}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6PowerSeries(context.Background(), m, 20, 140); err != nil {
			b.Fatal(err)
		}
	}
}

// decayTemps builds the synthetic radiator profile used by the kernel
// benchmarks.
func decayTemps(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 38 + 54*math.Exp(-3*float64(i)/float64(n))
	}
	return out
}

// BenchmarkMLRObservePredict times one control tick of the paper's
// selected predictor on a 100-module distribution.
func BenchmarkMLRObservePredict(b *testing.B) {
	mlr, err := predict.NewMLR(predict.DefaultMLROptions())
	if err != nil {
		b.Fatal(err)
	}
	temps := decayTemps(100)
	// Warm up past Ready.
	for i := 0; i < 10; i++ {
		if err := mlr.Observe(temps); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mlr.Observe(temps); err != nil {
			b.Fatal(err)
		}
		if _, err := mlr.Predict(4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrayEquivalent times the per-candidate equivalent-circuit
// evaluation that dominates the inner loop of both INOR and EHTR.
func BenchmarkArrayEquivalent(b *testing.B) {
	arr, err := array.New(teg.TGM199, teg.OpsFromTempsInto(nil, decayTemps(100), 25))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := array.Uniform(100, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.Equivalent(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorBest times the converter-weighted MPP search used
// to price every candidate configuration.
func BenchmarkEvaluatorBest(b *testing.B) {
	sys := sim.DefaultSystem()
	eval, err := core.NewEvaluator(sys.Spec, sys.Conv)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := array.New(sys.Spec, teg.OpsFromTempsInto(nil, decayTemps(100), 25))
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := array.Uniform(100, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Best(arr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
