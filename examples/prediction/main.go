// Prediction: the Section IV / Fig. 5 study as an application — compare
// MLR, BPNN and SVR forecasting the per-module radiator temperatures
// over a synthetic drive, reporting MAPE, worst-case error and runtime
// for several horizons.
package main

import (
	"fmt"
	"log"

	"tegrecon/internal/drive"
	"tegrecon/internal/exampleenv"
	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
)

func main() {
	log.SetFlags(0)

	cfg := drive.DefaultSynthConfig()
	cfg.Duration = exampleenv.Duration(800)
	tr, err := drive.Synthesize(cfg)
	if err != nil {
		log.Fatal(err)
	}
	truth := sim.TempSequence{Sys: sim.DefaultSystem(), Trace: tr, TickSeconds: sim.DefaultOptions().TickSeconds}
	seq, err := truth.All()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecasting %d modules over %d control ticks (0.5 s each)\n\n",
		len(seq[0]), len(seq))

	for _, horizon := range []int{1, 2, 4} {
		mlr, err := predict.NewMLR(predict.DefaultMLROptions())
		if err != nil {
			log.Fatal(err)
		}
		bpnn, err := predict.NewBPNN(predict.DefaultBPNNOptions())
		if err != nil {
			log.Fatal(err)
		}
		svr, err := predict.NewSVR(predict.DefaultSVROptions())
		if err != nil {
			log.Fatal(err)
		}
		results, err := predict.Compare([]predict.Predictor{mlr, bpnn, svr}, seq, horizon)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("horizon %d tick(s) = %.1f s ahead:\n", horizon, 0.5*float64(horizon))
		for _, r := range results {
			fmt.Printf("  %-5s MAPE %8.5f%%   max APE %8.4f%%   runtime %10v\n",
				r.Name, r.MAPE, r.MaxAPE, r.Runtime)
		}
		fmt.Println()
	}
	fmt.Println("MLR wins on both accuracy and speed — the paper's Section IV finding,")
	fmt.Println("and the reason DNOR embeds it.")
}
