// Quickstart: build the paper's 100-module radiator system, run the
// prediction-based DNOR controller over a short synthetic drive, and
// print what was harvested. This is the smallest end-to-end use of the
// public API.
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

	// A 2-minute repeatable urban drive (the paper measures 800 s;
	// shorten it here so the example finishes instantly, and let the
	// smoke tests shrink it further via TEGRECON_EXAMPLE_DURATION).
	cfg := tegrecon.DefaultDriveConfig()
	cfg.Duration = exampleenv.Duration(120)
	tr, err := tegrecon.SynthesizeDrive(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The experimental rig: default radiator, 100 TGM-199-1.4-0.8
	// modules, LTM4607 charger at 13.8 V.
	sys := tegrecon.DefaultSystem()

	// DNOR (Algorithm 2): INOR + MLR prediction 4 control ticks (2 s)
	// ahead, switching only when the gain beats the overhead.
	ctrl, err := tegrecon.NewControllerByName("DNOR", sys)
	if err != nil {
		log.Fatal(err)
	}

	res, err := tegrecon.Simulate(context.Background(), sys, tr, ctrl, tegrecon.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheme          : %s\n", res.Scheme)
	fmt.Printf("drive duration  : %.0f s\n", tr.Duration())
	fmt.Printf("energy harvested: %.1f J (%.1f W average)\n",
		res.EnergyOutJ, res.EnergyOutJ/tr.Duration())
	fmt.Printf("ideal energy    : %.1f J (%.1f%% captured)\n",
		res.IdealEnergyJ, 100*res.EnergyOutJ/res.IdealEnergyJ)
	fmt.Printf("switch events   : %d (%.2f J overhead)\n", res.SwitchEvents, res.OverheadJ)
	fmt.Printf("controller time : %v average per period\n", res.AvgRuntime)
	fmt.Printf("TEG efficiency  : %.2f%% thermal→electrical\n", 100*res.AvgTEGEff)
}
