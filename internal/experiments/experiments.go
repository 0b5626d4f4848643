// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the extension studies, each labelled in
// its doc comment: Ext-A array-size scaling (ScalingStudy) and Ext-C
// converter window (WindowAblation). Each experiment is a pure function
// from a System + trace (or parameters) to typed rows/series; cmd/
// binaries and the benchmark harness render them. The other extension
// studies are scenario matrices run by MatrixSweep: Ext-B prediction
// horizon, Ext-D predictor choice and Ext-H switch margin put DNOR
// variants ("DNOR:horizon=8", "DNOR:predictor=oracle",
// "DNOR:margin_j=0.5") on the scheme axis and render with
// report.FromSweep; Ext-E module faults, Ext-F drive-trace seeds and
// Ext-G 2-D radiator bank sweep a fault, cycle and flow axis and render
// with report.FromFaultStudy, FromSeedSweep and FromBank. `tegsim
// -study horizon|predictors|margins|faults|seeds|bank` builds them.
package experiments

import (
	"context"
	"fmt"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
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
	// Workers bounds the batch pool Table I, the window ablation and
	// Figs. 6–7 run their independent jobs on: 0 picks runtime.NumCPU(),
	// 1 runs them one at a time. DefaultSetup picks 1 because those runs
	// charge the measured controller runtime to the switching overhead
	// (Section III.C), and concurrent runs competing for cores inflate
	// that measurement; opt into parallelism where throughput matters
	// more than the runtime-priced decimals. Matrix studies take their
	// pool from MatrixOptions and price runtime deterministically.
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
// that must fail loudly rather than silently simulate the default and
// mislabel the result.
func (s *Setup) NewScheme(name string) (core.Controller, error) {
	sch, err := sim.SchemeByName(name)
	if err != nil {
		return nil, err
	}
	if sch.Predictive && s.HorizonTicks < 1 {
		return nil, fmt.Errorf("experiments: %s prediction horizon %d < 1 tick", sch.Name, s.HorizonTicks)
	}
	return sch.New(s.Sys, sim.SchemeConfig{HorizonTicks: s.HorizonTicks, TickSeconds: s.Opts.TickSeconds})
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
// distributions — the predictors' input stream — and returns the last
// tick's ambient air temperature with them.
func (s *Setup) TempSequence() ([][]float64, float64, error) {
	q := sim.TempSequence{Sys: s.Sys, Trace: s.Trace, TickSeconds: s.Opts.TickSeconds}
	out := make([][]float64, q.Len())
	for k := range out {
		temps, err := q.Temps(k)
		if err != nil {
			return nil, 0, err
		}
		out[k] = temps
	}
	last, err := q.Conditions(len(out) - 1)
	if err != nil {
		return nil, 0, err
	}
	return out, last.AirInletC, nil
}
