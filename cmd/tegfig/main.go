// Command tegfig emits the data series behind each figure of the paper
// as CSV on stdout, ready for any plotting tool.
//
// Usage:
//
//	tegfig -fig 1            # module I–V / P–V family (Fig. 1)
//	tegfig -fig 5            # prediction percentage error (Fig. 5)
//	tegfig -fig 6            # output power, 120 s window (Fig. 6)
//	tegfig -fig 7            # output-power ratio vs ideal (Fig. 7)
//	tegfig -fig scaling      # Ext-A: INOR vs EHTR runtime vs N
//
// Figs. 6 and 7 cut their window out of the four full Table I runs
// (`tegsim -study table1`'s cells), and -fig scaling runs INOR and EHTR
// over that drive at N = 25…800 as cells of one array_sizes matrix.
// Controller runtime is priced from counted work, so every figure's CSV
// is the same bytes on every run.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"sort"
	"strconv"

	"tegrecon/internal/drive"
	"tegrecon/internal/experiments"
	"tegrecon/internal/obs"
	"tegrecon/internal/scenario"
	"tegrecon/internal/sim"
	"tegrecon/internal/teg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tegfig: ")
	// Library code logs through slog; a CLI run wants that quiet unless
	// something is actually wrong. slog.SetDefault also reroutes the log
	// package into that Warn-level handler at Info level, which would
	// swallow every fatal reason, so the log package is pointed back at
	// stderr afterwards.
	slog.SetDefault(obs.MustLogger(os.Stderr, slog.LevelWarn, "text"))
	log.SetOutput(os.Stderr)
	var (
		fig     = flag.String("fig", "1", "figure to emit: 1, 5, 6, 7 or scaling")
		start   = flag.Float64("start", 20, "window start for figs 6/7 (s)")
		end     = flag.Float64("end", 140, "window end for figs 6/7 (s)")
		horizon = flag.Int("horizon", 2, "prediction horizon for fig 5 (ticks)")
	)
	flag.Parse()

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	var err error
	switch *fig {
	case "1":
		err = emitFig1(w)
	case "5":
		err = emitFig5(w, *horizon)
	case "6":
		err = emitFig6or7(w, *start, *end, false)
	case "7":
		err = emitFig6or7(w, *start, *end, true)
	case "scaling":
		err = emitScaling(w)
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

func emitFig1(w *csv.Writer) error {
	series, err := experiments.Fig1ModuleCurves(teg.TGM199, 25, 101)
	if err != nil {
		return err
	}
	if err := w.Write([]string{"delta_t_k", "current_a", "voltage_v", "power_w"}); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if err := w.Write([]string{f(s.DeltaT), f(p.Current), f(p.Voltage), f(p.Power)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// synthMatrix runs the schemes over Table I's drive, the 800 s
// synthetic trace at the paper's defaults, at the given array sizes
// (none: Table I's 100 modules).
func synthMatrix(schemes []string, sizes ...int) *scenario.Matrix {
	cfg := drive.DefaultSynthConfig()
	return &scenario.Matrix{
		Cycles:     []scenario.CycleSpec{scenario.SynthCycle(cfg)},
		Schemes:    schemes,
		Ambients:   []scenario.AmbientSpec{{AmbientC: cfg.AmbientC}},
		ArraySizes: sizes,
	}
}

func emitFig5(w *csv.Writer, horizon int) error {
	tr, err := drive.Synthesize(drive.DefaultSynthConfig())
	if err != nil {
		return err
	}
	truth := sim.TempSequence{Sys: sim.DefaultSystem(), Trace: tr, TickSeconds: sim.DefaultOptions().TickSeconds}
	res, err := experiments.Fig5PredictionError(truth, horizon)
	if err != nil {
		return err
	}
	if err := w.Write([]string{"method", "tick", "ape_percent"}); err != nil {
		return err
	}
	for _, r := range res.Results {
		for _, p := range r.Series {
			if err := w.Write([]string{r.Name, strconv.Itoa(p.Tick), f(p.APE)}); err != nil {
				return err
			}
		}
	}
	for _, r := range res.Results {
		fmt.Fprintf(os.Stderr, "%-5s  MAPE %.4f%%  max APE %.4f%%  runtime %v\n",
			r.Name, r.MAPE, r.MaxAPE, r.Runtime)
	}
	return nil
}

func emitFig6or7(w *csv.Writer, start, end float64, ratio bool) error {
	res, err := experiments.Fig6PowerSeries(context.Background(), synthMatrix(experiments.TableISchemes), start, end)
	if err != nil {
		return err
	}
	header := []string{"scheme", "time_s", "power_w", "switched"}
	if ratio {
		header[2] = "ratio"
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, run := range res.Runs {
		for _, tk := range run.Ticks {
			v := tk.NetW
			if ratio {
				v = tk.Ratio
			}
			if err := w.Write([]string{run.Scheme, f(tk.Time), f(v), strconv.FormatBool(tk.Switched)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// scalingSizes are Ext-A's array sizes.
var scalingSizes = []int{25, 50, 100, 200, 400, 800}

// emitScaling writes Ext-A: INOR's and EHTR's counted runtime per
// control period at each array size, and their ratio.
func emitScaling(w *csv.Writer) error {
	res, err := experiments.MatrixSweep(context.Background(), synthMatrix([]string{"INOR", "EHTR"}, scalingSizes...), experiments.MatrixOptions{})
	if err != nil {
		return err
	}
	cells := res.Cells
	// Cells come in coordinate order; the curve reads by N, INOR first.
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Modules != cells[j].Modules {
			return cells[i].Modules < cells[j].Modules
		}
		return cells[i].Scheme == "INOR" && cells[j].Scheme != "INOR"
	})
	if err := w.Write([]string{"n_modules", "inor_us", "ehtr_us", "speedup"}); err != nil {
		return err
	}
	for k := 0; k+1 < len(cells); k += 2 {
		inor, ehtr := cells[k].AvgRuntime, cells[k+1].AvgRuntime
		if err := w.Write([]string{
			strconv.Itoa(cells[k].Modules),
			f(float64(inor) / 1e3),
			f(float64(ehtr) / 1e3),
			f(float64(ehtr) / float64(inor)),
		}); err != nil {
			return err
		}
	}
	return nil
}
