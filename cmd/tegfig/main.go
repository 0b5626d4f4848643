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
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"strconv"

	"tegrecon/internal/experiments"
	"tegrecon/internal/obs"
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

func emitFig5(w *csv.Writer, horizon int) error {
	setup, err := experiments.DefaultSetup()
	if err != nil {
		return err
	}
	res, err := experiments.Fig5PredictionError(setup, horizon)
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
	setup, err := experiments.DefaultSetup()
	if err != nil {
		return err
	}
	res, err := experiments.Fig6PowerSeries(setup, start, end)
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

func emitScaling(w *csv.Writer) error {
	pts, err := experiments.ScalingStudy([]int{25, 50, 100, 200, 400, 800}, 3)
	if err != nil {
		return err
	}
	if err := w.Write([]string{"n_modules", "inor_us", "ehtr_us", "speedup"}); err != nil {
		return err
	}
	for _, p := range pts {
		if err := w.Write([]string{
			strconv.Itoa(p.N),
			f(float64(p.INORRuntime.Microseconds())),
			f(float64(p.EHTRRuntime.Microseconds())),
			f(p.Speedup),
		}); err != nil {
			return err
		}
	}
	return nil
}
