// The -matrix mode: load a declarative scenario-matrix spec and run
// its full cross-product on the batch engine.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"tegrecon/internal/experiments"
	"tegrecon/internal/report"
	"tegrecon/internal/scenario"
)

func loadMatrixSpec(path string) (*scenario.Matrix, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m scenario.Matrix
	dec := json.NewDecoder(bytes.NewReader(b))
	// Unknown fields in a spec file are typos — an axis the user thinks
	// is sweeping but isn't — not extensions to ignore.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &m, nil
}

func runMatrix(ctx context.Context, path string, workers int, format report.Format) error {
	m, err := loadMatrixSpec(path)
	if err != nil {
		return err
	}
	// Normalize and Counts check and size the matrix without
	// materializing any traces, so spec errors and the sweep's scale
	// both surface before the first simulation starts.
	n, err := m.Normalize()
	if err != nil {
		return err
	}
	counts, err := n.Counts()
	if err != nil {
		return err
	}
	meter := newProgressMeter()
	res, err := experiments.MatrixSweep(ctx, m, experiments.MatrixOptions{
		Workers: workers,
		OnTick:  meter.observe,
	})
	meter.done()
	if err != nil {
		return err
	}

	switch format {
	case report.JSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report.NewMatrixEnvelope(res, counts))
	default:
		if format != report.CSV {
			name := res.Name
			if name == "" {
				name = path
			}
			fmt.Printf("Scenario matrix %s — %d cells, %d jobs, %d control periods\n\n",
				name, counts.Cells, counts.Jobs, counts.Ticks)
		}
		if err := report.FromMatrix(res).Write(os.Stdout, format); err != nil {
			return err
		}
		// A matrix where every axis is collapsed has no marginals to
		// roll up; skip the empty table.
		if len(res.Marginals()) > 0 {
			fmt.Println()
			return report.FromMatrixMarginals(res).Write(os.Stdout, format)
		}
		return nil
	}
}
