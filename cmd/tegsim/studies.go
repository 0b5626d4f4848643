// The studies: Table I, Ext-B horizon, Ext-C converter window, Ext-D
// predictors, Ext-E faults, Ext-F seeds, Ext-G bank, Ext-H margins and
// the standard-cycle scenario sweep, each one or more scenario-matrix
// grids.

package main

import (
	"fmt"

	"tegrecon/internal/converter"
	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/predict"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
)

// studyRender renders a study's cells, concatenated in the order of
// its matrices.
type studyRender func(ms []*scenario.Matrix, cells []experiments.MatrixCell) (*report.Table, error)

// studyMatrix builds the normalized scenario matrices a study runs and
// the function that renders their cells. base carries what every
// study shares (array size, tick, horizon and the scenario sweep's
// cycle cap). Every study but the scenario sweep drives synth, the
// -synth (or -duration and -seed) trace, and sweeps only its own axis:
// the four Table I schemes, DNOR variants on the scheme axis (horizon,
// predictor, switch margin), fault plans, trace seeds or radiator flow
// levels. The converter band is a matrix-level parameter, not an axis,
// so the window study runs one INOR matrix per band; every band's cell
// keeps the coordinate, and so the noise draw, of Table I's INOR cell.
func studyMatrix(study string, base scenario.Matrix, synth drive.SynthConfig, failures, seeds int) ([]*scenario.Matrix, studyRender, error) {
	m := base
	var render studyRender
	conv := converter.LTM4607()
	bands := [][2]float64{{conv.MinInput, conv.MaxInput}} // normalizes to no band
	cycleSeeds := []int64{synth.Seed}
	label := "-study " + study
	switch study {
	case "table1":
		m.Schemes = experiments.TableISchemes
		render = func(ms []*scenario.Matrix, cells []experiments.MatrixCell) (*report.Table, error) {
			res, err := experiments.TableI(ms[0], cells)
			if err != nil {
				return nil, err
			}
			return report.FromTableI(res), nil
		}
	case "window":
		m.Schemes = []string{"INOR"}
		bands = append(bands, [2]float64{8, 24}, [2]float64{12, 16})
		render = func(_ []*scenario.Matrix, cells []experiments.MatrixCell) (*report.Table, error) {
			return report.FromWindow(bands, cells), nil
		}
	case "scenarios":
		sweep := scenario.CycleSweep(nil, nil, base.MaxDurationS)
		m.Cycles, m.MaxDurationS = sweep.Cycles, sweep.MaxDurationS
		render, cycleSeeds = one(report.FromSweep), nil
	case "faults":
		m.Schemes = []string{"DNOR", "INOR", "Baseline"}
		m.Faults = []scenario.FaultSpec{{}, {Storm: &scenario.StormSpec{Count: failures}}}
		render = one(report.FromFaultStudy)
		label += fmt.Sprintf(" -failures %d", failures)
	case "seeds":
		m.Schemes = []string{"DNOR", "INOR", "Baseline"}
		cycleSeeds = make([]int64, seeds)
		for k := range cycleSeeds {
			cycleSeeds[k] = 101 * int64(k+1)
		}
		render = one(report.FromSeedSweep)
		label += fmt.Sprintf(" -seeds %d", seeds)
	case "bank":
		m.Schemes = []string{"INOR", "Baseline"}
		for _, mal := range []float64{0, 0.2, 0.4, 0.6} {
			m.Flows = append(m.Flows, scenario.FlowSpec{Paths: 5, Maldistribution: mal})
		}
		render = one(report.FromBank)
	case "horizon":
		for _, h := range []int{1, 2, 4, 6, 8} {
			m.Schemes = append(m.Schemes, fmt.Sprintf("DNOR:horizon=%d", h))
		}
		render = sweepTitled(fmt.Sprintf("Ext-B — DNOR prediction-horizon ablation (DNOR alone: horizon %d)", m.HorizonTicks))
	case "predictors":
		for _, p := range predict.Names() {
			m.Schemes = append(m.Schemes, "DNOR:predictor="+p)
		}
		render = sweepTitled("Ext-D — DNOR predictor ablation (DNOR alone: MLR)")
	case "margins":
		for _, mj := range []float64{0, 0.25, 0.5, 1, 2} {
			m.Schemes = append(m.Schemes, fmt.Sprintf("DNOR:margin_j=%g", mj))
		}
		render = sweepTitled("Ext-H — DNOR switch-margin ablation (DNOR alone: margin 0, the paper's Algorithm 2 rule)")
	default:
		return nil, nil, fmt.Errorf("unknown study %q", study)
	}
	if len(cycleSeeds) > 0 {
		m.Ambients = []scenario.AmbientSpec{{AmbientC: synth.AmbientC}}
	}
	for _, seed := range cycleSeeds {
		// A matrix reads synth seed 0 as its default seed, so a trace
		// seeded 0 cannot be expressed; refuse rather than substitute.
		if seed == 0 {
			return nil, nil, fmt.Errorf("%s: trace seed 0 cannot be expressed in a scenario matrix; pick another seed", label)
		}
		m.Cycles = append(m.Cycles, scenario.CycleSpec{Synth: &scenario.SynthSpec{
			Profile:    synth.Cycle.String(),
			DurationS:  synth.Duration,
			DTS:        synth.DT,
			Seed:       seed,
			GradePct:   synth.GradePct,
			StopFactor: synth.StopFactor,
			SpeedScale: synth.SpeedScale,
			ColdStart:  !synth.WarmStart,
		}})
	}
	ms := make([]*scenario.Matrix, len(bands))
	for i := range ms {
		m.ConverterInputV = &bands[i]
		n, err := m.Normalize()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		ms[i] = n
	}
	return ms, render, nil
}

// one renders a single-matrix study with a report converter.
func one(from func(*scenario.Matrix, []experiments.MatrixCell) *report.Table) studyRender {
	return func(ms []*scenario.Matrix, cells []experiments.MatrixCell) (*report.Table, error) {
		return from(ms[0], cells), nil
	}
}

// sweepTitled renders a DNOR-variant study as report.FromSweep's
// (cycle, scheme) table under its own title.
func sweepTitled(title string) studyRender {
	return func(ms []*scenario.Matrix, cells []experiments.MatrixCell) (*report.Table, error) {
		t := report.FromSweep(ms[0], cells)
		t.Title = title
		return t, nil
	}
}
