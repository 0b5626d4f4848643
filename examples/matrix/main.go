// Matrix: the declarative scenario-matrix subsystem as an application.
// The committed spec.json sweeps 3 drive cycles × 4 reconfiguration
// schemes × 3 ambients × 2 flow splits × 2 fault plans × 2 array
// sizes — 288 cells —
// through one JSON document: internal/scenario expands it into a
// deterministic, stably-ordered job list, the batch engine runs it in
// parallel, and the per-axis marginals answer "what does ambient do,
// averaged over everything else" without any bespoke sweep code.
//
// Every cell's seed is derived from its coordinate, so the whole grid
// is bit-identical serial or parallel — and identical again
// when the same spec is POSTed to a tegserve instance's /v1/matrix.
//
// TEGRECON_EXAMPLE_DURATION caps each cell's simulated span (the
// smoke-test hook); unset, the spec's own 60 s cap applies. For the
// CLI rendering of the same spec run
// `go run ./cmd/tegsim -matrix examples/matrix/spec.json -workers 0`.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"log"

	"tegrecon/internal/exampleenv"
	"tegrecon/internal/experiments"
	"tegrecon/internal/scenario"
)

//go:embed spec.json
var specJSON []byte

func main() {
	log.SetFlags(0)

	var m scenario.Matrix
	if err := json.Unmarshal(specJSON, &m); err != nil {
		log.Fatal(err)
	}
	// The env hook only ever shrinks the grid: the committed spec's cap
	// is the ceiling, so the example never runs longer than advertised.
	if cap := exampleenv.Duration(m.MaxDurationS); cap < m.MaxDurationS {
		m.MaxDurationS = cap
	}

	n, err := m.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	counts, err := n.Counts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec %q: %d cells, %d jobs, %d control periods\n\n",
		m.Name, counts.Cells, counts.Jobs, counts.Ticks)

	res, err := experiments.MatrixSweep(context.Background(), &m, experiments.MatrixOptions{Workers: 0})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-8s %-22s %12s %12s\n", "axis", "value", "mean J", "capture")
	for _, mg := range res.Marginals() {
		fmt.Printf("%-8s %-22s %12.1f %11.1f%%\n",
			mg.Axis, mg.Value, mg.MeanEnergyJ, 100*mg.MeanRatio)
	}

	// The headline the grid exists to show: DNOR's advantage is not an
	// artifact of one trace — it holds as a marginal over every cycle,
	// ambient, fault plan and array size at once.
	best, baseline := "", 0.0
	var bestE float64
	for _, mg := range res.Marginals() {
		if mg.Axis != "scheme" {
			continue
		}
		if mg.Value == "Baseline" {
			baseline = mg.MeanEnergyJ
		}
		if mg.MeanEnergyJ > bestE {
			best, bestE = mg.Value, mg.MeanEnergyJ
		}
	}
	if baseline > 0 && best != "" {
		fmt.Printf("\n%s leads the grid: %.1f J mean vs the static baseline's %.1f J (%.2fx),\n",
			best, bestE, baseline, bestE/baseline)
		fmt.Println("averaged over every cycle, ambient, fault plan and array size in the spec.")
	}
}
