// Command perfbench is the repository's layered end-to-end benchmark.
// It starts in-process serve.New servers behind httptest listeners,
// drives them over HTTP with requests generated from -seed, checks
// every response for correctness, and reports end-to-end metrics (or,
// with -trace 1, per-layer metrics timed from outside each layer).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh -workload runs_n100 -seed 1 -seconds 10 -trace 0
//	bash perfbench/run.sh -workload all -seed 1 -out run.json
//	bash perfbench/run.sh -compare setA/*.json -- setB/*.json
//
// Each run prints one "workload metric value unit" line per metric and,
// as its last line, a JSON summary with the keys correct, attempted,
// failed and metrics. It exits non-zero when any correctness check
// fails. See README.md for the workloads, the metrics and how to read a
// traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the summary line's fields plus what the
// -out document and -compare need.
type result struct {
	Workload      string            `json:"workload"`
	Seed          int64             `json:"seed"`
	Seconds       float64           `json:"seconds"`
	Trace         bool              `json:"trace"`
	Correct       bool              `json:"correct"`
	Attempted     int               `json:"attempted"`
	Failed        int               `json:"failed"`
	OutputDigest  string            `json:"output_digest"`
	CheckFailures []string          `json:"check_failures,omitempty"`
	HostSpeed     float64           `json:"host_speed"` // median segment speed factor of the measured window
	Metrics       map[string]metric `json:"metrics"`
}

// document is what -out writes and -compare reads.
type document struct {
	SchemaVersion int      `json:"schema_version"`
	Machine       machine  `json:"machine"`
	Timestamp     string   `json:"timestamp"`
	Results       []result `json:"results"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames()+" or all")
		seed     = flag.Int64("seed", 1, "seed every request is generated from")
		seconds  = flag.Float64("seconds", 20, "measured window per workload, seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
		out      = flag.String("out", "", "also write the full result document (machine, digests, metrics) to this file")
		spans    = flag.String("spans", "", "where a traced run writes its spans (default <build-dir>/spans_<workload>_<seed>.json)")
		buildDir = flag.String("build-dir", ".bench_build", "directory for store directories and span files")
		compare  = flag.Bool("compare", false, "compare two sets of -out documents: -compare a/*.json -- b/*.json")
		bench    = flag.String("bench", "BENCHMARK.json", "benchmark description whose bounds -compare applies")
	)
	flag.Parse()

	if *compare {
		setA, setB, err := splitSets(flag.Args())
		if err != nil {
			log.Fatal(err)
		}
		ok, err := runCompare(os.Stdout, *bench, setA, setB)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	todo := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			log.Fatalf("unknown -workload %q (want %s or all)", *name, workloadNames())
		}
		todo = []workload{w}
	}
	if *seconds <= 0 {
		log.Fatalf("-seconds %g is not positive", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace %d: want 0 or 1", *trace)
	}
	if err := os.MkdirAll(*buildDir, 0o755); err != nil {
		log.Fatal(err)
	}

	doc := document{SchemaVersion: 1, Machine: describeMachine(), Timestamp: time.Now().UTC().Format(time.RFC3339)}
	all := summary{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		cfg := config{seed: *seed, seconds: *seconds, dir: *buildDir, sc: fullScale}
		if *trace == 1 {
			cfg.spansPath = *spans
			if cfg.spansPath == "" || len(todo) > 1 {
				cfg.spansPath = filepath.Join(*buildDir, fmt.Sprintf("spans_%s_%d.json", w.name, *seed))
			}
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		doc.Results = append(doc.Results, *res)
		names := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := res.Metrics[k]
			fmt.Printf("%s %s %s %s\n", w.name, k, formatValue(m.Value), m.Unit)
			key := k
			if len(todo) > 1 {
				key = w.name + "." + k
			}
			all.Metrics[key] = m
		}
		fmt.Printf("%s output_digest %s\n", w.name, res.OutputDigest)
		fmt.Printf("%s host_speed %s\n", w.name, formatValue(res.HostSpeed))
		for _, f := range res.CheckFailures {
			log.Printf("%s: check failed: %s", w.name, f)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

// formatValue prints a metric with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// splitSets splits the positional arguments of -compare at "--".
func splitSets(args []string) (a, b []string, err error) {
	for i, arg := range args {
		if arg == "--" {
			a, b = args[:i], args[i+1:]
			if len(a) == 0 || len(b) == 0 {
				break
			}
			return a, b, nil
		}
	}
	return nil, nil, errors.New("-compare needs two non-empty sets of result files separated by --")
}
