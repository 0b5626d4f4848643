// Drivingcycle: the paper's headline experiment as an application — run
// all four schemes (DNOR, INOR, EHTR, static 10×10 baseline) over the
// full 800 s drive and print a live comparison, ending with the Table I
// summary rows.
package main

import (
	"context"
	"fmt"
	"log"

	"tegrecon"
	"tegrecon/internal/exampleenv"
)

func main() {
	log.SetFlags(0)

	cfg := tegrecon.DefaultDriveConfig()
	cfg.Duration = exampleenv.Duration(cfg.Duration)
	tr, err := tegrecon.SynthesizeDrive(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys := tegrecon.DefaultSystem()

	fmt.Printf("%-10s %14s %14s %16s %10s\n",
		"scheme", "energy (J)", "overhead (J)", "avg runtime", "switches")
	var results []*tegrecon.SimResult
	for _, name := range []string{"DNOR", "INOR", "EHTR", "Baseline"} {
		ctrl, err := tegrecon.NewControllerByName(name, sys)
		if err != nil {
			log.Fatal(err)
		}
		res, err := tegrecon.Simulate(context.Background(), sys, tr, ctrl, tegrecon.DefaultSimOptions())
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		fmt.Printf("%-10s %14.1f %14.2f %16v %10d\n",
			res.Scheme, res.EnergyOutJ, res.OverheadJ, res.AvgRuntime, res.SwitchEvents)
	}

	dnor, base := results[0], results[3]
	fmt.Printf("\nDNOR harvested %.1f%% more energy than the static baseline\n",
		100*(dnor.EnergyOutJ/base.EnergyOutJ-1))
	ehtr := results[2]
	if dnor.OverheadJ > 0 {
		fmt.Printf("DNOR paid %.0f× less switching overhead than EHTR\n",
			ehtr.OverheadJ/dnor.OverheadJ)
	}
}
