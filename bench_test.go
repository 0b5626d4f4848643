// Benchmark harness: the figures of the paper (the internal/experiments
// package doc indexes the experiments and their Ext- labels) and
// micro-benchmarks of the algorithmic kernels that cmd/tegbench has no
// suite for; Table I and the scaling sizes it covers are tegbench
// suites only. Run with:
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
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
	"tegrecon/internal/thermal"
)

// benchSetup builds a Section VI setup over a shortened trace so each
// benchmark iteration stays tractable.
func benchSetup(b *testing.B, seconds float64) *experiments.Setup {
	b.Helper()
	s, err := experiments.DefaultSetup()
	if err != nil {
		b.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = seconds
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Trace = tr
	return s
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
	s := benchSetup(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5PredictionError(s, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PowerSeries regenerates the Fig. 6 four-scheme power
// series over the 120 s window.
func BenchmarkFig6PowerSeries(b *testing.B) {
	s := benchSetup(b, 160)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6PowerSeries(s, 20, 140); err != nil {
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

// benchDecide times a single controller invocation at array size n —
// the Ext-A scaling study (Table I "Average Runtime" and the O(N) vs
// O(N³) claim).
func benchDecide(b *testing.B, n int, scheme string) {
	b.Helper()
	sch, err := sim.SchemeByName(scheme)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := sch.New(sim.DefaultSystem(), sim.SchemeConfig{})
	if err != nil {
		b.Fatal(err)
	}
	temps := decayTemps(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Decide(i, temps, 25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingEHTR_N200 and _N400 fill in the O(N³) reconstruction
// between tegbench's scaling_ehtr_n100 and scaling_ehtr_n800 suites.
func BenchmarkScalingEHTR_N200(b *testing.B) { benchDecide(b, 200, "EHTR") }

// BenchmarkScalingEHTR_N400 is the 400-module point.
func BenchmarkScalingEHTR_N400(b *testing.B) { benchDecide(b, 400, "EHTR") }

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

// benchConditions interpolates every control period's radiator boundary
// conditions from a trace up front, so a Step benchmark measures only
// the engine's own loop body.
func benchConditions(b *testing.B, s *experiments.Setup) []thermal.Conditions {
	b.Helper()
	ticks := int(s.Trace.Duration()/s.Opts.TickSeconds) + 1
	conds := make([]thermal.Conditions, ticks)
	for k := range conds {
		cond, err := drive.ConditionsAt(s.Trace, s.Trace.Times[0]+float64(k)*s.Opts.TickSeconds)
		if err != nil {
			b.Fatal(err)
		}
		conds[k] = cond
	}
	return conds
}

// BenchmarkSessionStep measures one steady-state control period of the
// incremental engine in streaming mode (KeepTicks off). The allocation
// count is the acceptance gate: a steady-state Step allocates nothing
// (the per-session scratch holds every buffer the tick loop needs), and
// cmd/tegbench enforces that floor against bench_budget.json on every
// CI run. The warmup pass grows the scratch to the largest size the
// drive demands so the measurement sees pure steady state.
func BenchmarkSessionStep(b *testing.B) {
	s := benchSetup(b, 60)
	conds := benchConditions(b, s)
	ctrl, err := s.NewScheme("INOR")
	if err != nil {
		b.Fatal(err)
	}
	opts := s.Opts
	opts.KeepTicks = false
	sess, err := sim.NewSession(s.Sys, ctrl, opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, cond := range conds { // warmup: grow all scratch buffers
		if _, err := sess.Step(cond); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Step(conds[i%len(conds)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunVsSession compares the batch trace-replay wrapper against
// a hand-stepped session over the same 60 s drive — the overhead of the
// incremental API relative to the monolithic loop it replaced.
func BenchmarkRunVsSession(b *testing.B) {
	s := benchSetup(b, 60)
	conds := benchConditions(b, s)
	opts := s.Opts
	b.Run("Run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctrl, err := s.NewScheme("INOR")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(context.Background(), s.Sys, s.Trace, ctrl, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctrl, err := s.NewScheme("INOR")
			if err != nil {
				b.Fatal(err)
			}
			sess, err := sim.NewSession(s.Sys, ctrl, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, cond := range conds {
				if _, err := sess.Step(cond); err != nil {
					b.Fatal(err)
				}
			}
			if res := sess.Result(); res.EnergyOutJ <= 0 {
				b.Fatal("no energy harvested")
			}
		}
	})
}
