// Faulttolerance: the robustness argument for reconfigurable TEG arrays
// as an application. Random module failures (open and short) are
// injected over a drive; the reconfiguring INOR controller re-balances
// the surviving modules while the static 10×10 baseline keeps its wiring
// and loses whole-group efficiency around every dead module.
package main

import (
	"context"
	"fmt"
	"log"

	"tegrecon/internal/drive"
	"tegrecon/internal/exampleenv"
	"tegrecon/internal/experiments"
)

func main() {
	log.SetFlags(0)

	setup, err := experiments.DefaultSetup()
	if err != nil {
		log.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = exampleenv.Duration(300)
	setup.Trace, err = drive.Synthesize(cfg)
	if err != nil {
		log.Fatal(err)
	}

	for _, failures := range []int{5, 15, 30} {
		pts, err := experiments.FaultStudy(context.Background(), setup, failures, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d of %d modules failing during the drive:\n", failures, setup.Sys.Modules)
		fmt.Printf("  %-10s %14s %14s %12s %16s\n",
			"scheme", "healthy (J)", "faulted (J)", "retained", "capture of ideal")
		for _, p := range pts {
			fmt.Printf("  %-10s %14.1f %14.1f %11.1f%% %15.1f%%\n",
				p.Scheme, p.HealthyEnergyJ, p.FaultyEnergyJ,
				100*p.RetainedFraction, 100*p.FaultyCaptureFrac)
		}
		fmt.Println()
	}
	fmt.Println("Reconfiguration keeps capturing most of the surviving modules' ideal")
	fmt.Println("power; the static baseline cannot route around dead modules.")
}
