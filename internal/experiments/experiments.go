// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the extension studies. Every grid study
// is a scenario matrix run by MatrixSweep: Table I (folded by TableI),
// Ext-B horizon, Ext-C converter window (one INOR matrix per
// converter_input_v band), Ext-D predictors, Ext-E faults, Ext-F
// drive-trace seeds, Ext-G radiator bank and Ext-H switch margin, which
// `tegsim -study` builds and internal/report renders. The rest reads
// single runs: the per-tick figures (Fig. 1, 5, 6/7) and Ext-A
// array-size scaling (ScalingStudy), a wall-clock timing study.
package experiments

import (
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
	}, nil
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
