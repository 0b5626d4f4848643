// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the extension studies, each labelled in
// its doc comment: Ext-A array-size scaling (ScalingStudy), Ext-B
// prediction horizon (HorizonAblation), Ext-C converter window
// (WindowAblation), Ext-D predictor choice (PredictorAblation) and
// Ext-H switch margin (MarginAblation). Each experiment is a pure
// function from a System + trace (or parameters) to typed rows/series;
// cmd/ binaries and the benchmark harness render them. The Ext-E module
// fault, Ext-F drive-trace seed and Ext-G 2-D radiator bank studies are
// scenario matrices (a fault, cycle and flow axis respectively) run by
// MatrixSweep and rendered by report.FromFaultStudy, FromSeedSweep and
// FromBank; `tegsim -study faults|seeds|bank` builds them.
package experiments

import (
	"context"
	"fmt"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
	"tegrecon/internal/trace"
)

// Setup bundles everything the Section VI experiments share.
type Setup struct {
	Sys   *sim.System
	Trace *trace.Trace
	Opts  sim.Options
	// HorizonTicks is DNOR's tp in control ticks.
	HorizonTicks int
	// Workers bounds the batch pool every study runs its independent
	// jobs on: 0 picks runtime.NumCPU(), 1 runs them one at a time.
	// DefaultSetup picks 1 because overhead pricing charges the measured
	// controller runtime (Section III.C), and concurrent runs competing
	// for cores inflate that measurement; opt into parallelism where the
	// accounting is deterministic (the seed sweep, DeterministicRuntime
	// runs) or where throughput matters more than the runtime-priced
	// decimals.
	Workers int
}

// DefaultSetup builds the paper's experimental rig: the 100-module
// system on the 800 s synthetic Porter II trace at a 0.5 s control
// period, DNOR predicting 2 s ahead (4 ticks).
func DefaultSetup() (*Setup, error) {
	tr, err := drive.Synthesize(drive.DefaultSynthConfig())
	if err != nil {
		return nil, err
	}
	return &Setup{
		Sys:          sim.DefaultSystem(),
		Trace:        tr,
		Opts:         sim.DefaultOptions(),
		HorizonTicks: 4,
		Workers:      1,
	}, nil
}

// summaryOpts strips the per-tick buffers from the setup's options:
// the drivers that read only run summaries (Table I, the sweeps, the
// ablations) use it so long runs stop paying O(duration) memory each.
func (s *Setup) summaryOpts() sim.Options {
	opts := s.Opts
	opts.KeepTicks = false
	return opts
}

// NewScheme builds a fresh controller for any registered scheme name —
// the experiment-level face of sim.SchemeByName. Unlike SchemeConfig's
// zero-value-means-default contract, a Setup always carries an
// explicit horizon, so a non-positive one here is a caller mistake
// (e.g. an ablation sweeping over 0) that must fail loudly rather than
// silently simulate the default and mislabel the result.
func (s *Setup) NewScheme(name string) (core.Controller, error) {
	return s.newScheme(name, nil)
}

// newScheme is NewScheme with DNOR's predictor overridden (nil keeps
// the registry's MLR) — the predictor ablation's hook.
func (s *Setup) newScheme(name string, p predict.Predictor) (core.Controller, error) {
	sch, err := sim.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	if sch.UsesHorizon && s.HorizonTicks < 1 {
		return nil, fmt.Errorf("experiments: %s prediction horizon %d < 1 tick", sch.Name, s.HorizonTicks)
	}
	return sch.New(s.Sys, sim.SchemeConfig{HorizonTicks: s.HorizonTicks, TickSeconds: s.Opts.TickSeconds, Predictor: p})
}

// compareSchemes runs one fresh controller per name over the same
// trace as a single batch; results keep the names' order.
func (s *Setup) compareSchemes(ctx context.Context, tr *trace.Trace, opts sim.Options, names ...string) ([]*sim.Result, error) {
	jobs := make([]sim.Job, len(names))
	for i, name := range names {
		c, err := s.NewScheme(name)
		if err != nil {
			return nil, err
		}
		jobs[i] = sim.Job{Sys: s.Sys, Trace: tr, Ctrl: c, Opts: opts}
	}
	return sim.Batch{Workers: s.Workers}.Run(ctx, jobs)
}

// TempSequence converts the trace into per-tick module temperature
// distributions — the predictors' input stream.
func (s *Setup) TempSequence() ([][]float64, float64, error) {
	t0 := s.Trace.Times[0]
	dt := s.Opts.TickSeconds
	ticks := int(s.Trace.Duration()/dt) + 1
	out := make([][]float64, 0, ticks)
	ambient := 0.0
	for k := 0; k < ticks; k++ {
		cond, err := drive.ConditionsAt(s.Trace, t0+float64(k)*dt)
		if err != nil {
			return nil, 0, err
		}
		temps, err := s.Sys.Radiator.ModuleTemps(cond, s.Sys.Modules)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, temps)
		ambient = cond.AirInletC
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("experiments: empty temperature sequence")
	}
	return out, ambient, nil
}
