package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readResults(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var d document
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, d.Results...)
	}
	return out, nil
}

// quartiles returns the 25th, 50th and 75th percentiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return pct(xs, 25), pct(xs, 50), pct(xs, 75)
}

// verdict judges set B against set A for one metric. A bound of nil
// (per-layer metrics) is only reported, never judged. A set whose own
// IQR/median exceeds the bound cannot resolve a change of that size.
func verdict(a, b []float64, better string, bound *float64) string {
	if bound == nil || len(a) == 0 || len(b) == 0 {
		return ""
	}
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	if a2 == 0 || b2 == 0 || (a3-a1)/math.Abs(a2) > *bound || (b3-b1)/math.Abs(b2) > *bound {
		return "unresolved"
	}
	change := (b2 - a2) / math.Abs(a2)
	if better == "higher" {
		change = -change
	}
	switch {
	case change > *bound:
		return "REGRESSED"
	case change < -*bound:
		return "improved"
	}
	return "within bound"
}

// runCompare prints, for each workload × metric, both sets' median and
// quartiles and the verdict, and checks that runs of the same workload
// and seed produced the same output digest. It reports false on a
// regression or a digest mismatch.
func runCompare(w io.Writer, benchPath string, setA, setB []string) (bool, error) {
	spec, err := readBenchSpec(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(setA)
	if err != nil {
		return false, err
	}
	b, err := readResults(setB)
	if err != nil {
		return false, err
	}
	ok := true

	digests := map[string]string{}
	for _, r := range append(append([]result(nil), a...), b...) {
		key := fmt.Sprintf("%s seed %d", r.Workload, r.Seed)
		if d, seen := digests[key]; seen && d != r.OutputDigest {
			fmt.Fprintf(w, "DIGEST MISMATCH %s: %s vs %s\n", key, d, r.OutputDigest)
			ok = false
		}
		digests[key] = r.OutputDigest
		if !r.Correct {
			fmt.Fprintf(w, "INCORRECT RUN %s: %v\n", key, r.CheckFailures)
			ok = false
		}
	}

	values := func(rs []result, wl, m string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, has := r.Metrics[m]; r.Workload == wl && has {
				out = append(out, v.Value)
			}
		}
		return out
	}
	wls := map[string]bool{}
	for _, r := range append(append([]result(nil), a...), b...) {
		wls[r.Workload] = true
	}
	names := make([]string, 0, len(wls))
	for wl := range wls {
		names = append(names, wl)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-30s %-14s %12s %12s %12s | %12s %12s %12s %8s  %s\n",
		"workload", "metric", "unit", "A p25", "A p50", "A p75", "B p25", "B p50", "B p75", "Δp50", "verdict")
	for _, wl := range names {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			av, bv := values(a, wl, m.Name), values(b, wl, m.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(av)
			b1, b2, b3 := quartiles(bv)
			delta := math.NaN()
			if a2 != 0 {
				delta = 100 * (b2 - a2) / math.Abs(a2)
			}
			v := verdict(av, bv, m.Better, m.Bound)
			if v == "REGRESSED" {
				ok = false
			}
			fmt.Fprintf(w, "%-13s %-30s %-14s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g %7.1f%%  %s\n",
				wl, m.Name, m.Unit, a1, a2, a3, b1, b2, b3, delta, v)
		}
	}
	return ok, nil
}
