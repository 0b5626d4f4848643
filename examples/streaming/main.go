// Streaming: drive a simulation Session online, one control period at a
// time, instead of handing the simulator a complete pre-built trace.
//
// The paper's controllers are online algorithms — every 0.5 s they see
// the radiator temperatures of that instant and pick a topology. The
// Session API matches that shape: here a WLTC Class 3 speed schedule
// stands in for live telemetry, each period's radiator conditions are
// looked up and fed to Step, and per-period power prints as it happens
// (the same hook a live dashboard would use). The final Result is
// identical to what a batch Simulate over the same trace reports.
package main

import (
	"fmt"
	"log"

	"tegrecon"
	"tegrecon/internal/exampleenv"
)

func main() {
	log.SetFlags(0)

	// The "telemetry source": the WLTC Class 3 cycle run through the
	// engine/coolant state machine. Any trace works — including one
	// ingested from a measured CSV log.
	cycle, err := tegrecon.CycleByName("wltc")
	if err != nil {
		log.Fatal(err)
	}
	cfg := tegrecon.DefaultDriveConfig()
	cfg.Duration = exampleenv.Duration(120) // cap the 1800 s cycle for the demo
	tr, err := tegrecon.SynthesizeFromSchedule(cfg, cycle.Schedule())
	if err != nil {
		log.Fatal(err)
	}

	sys := tegrecon.DefaultSystem()
	ctrl, err := tegrecon.NewControllerByName("DNOR", sys)
	if err != nil {
		log.Fatal(err)
	}

	// Streaming options: don't buffer the per-tick records (a session
	// that runs for hours would otherwise grow without bound) — observe
	// them as they happen instead. The session clock starts at the
	// trace's first timestamp so ConditionsAt lookups line up even for
	// traces that don't begin at t=0.
	opts := tegrecon.DefaultSimOptions()
	opts.KeepTicks = false
	opts.StartTime = tr.Times[0]

	sess, err := tegrecon.NewSession(sys, ctrl, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stepping DNOR online over %.0f s of the WLTC at a %.1f s control period\n\n",
		tr.Duration(), opts.TickSeconds)
	fmt.Printf("%8s %10s %10s %8s %8s\n", "t (s)", "net (W)", "ideal (W)", "groups", "switch")

	// The online loop: one Step per control period. With real hardware
	// the conditions would come from sensors; here they are interpolated
	// from the schedule-driven trace at the session's own clock.
	for sess.Now() <= tr.Times[0]+tr.Duration() {
		cond, err := tegrecon.ConditionsAt(tr, sess.Now())
		if err != nil {
			log.Fatal(err)
		}
		tick, err := sess.Step(cond)
		if err != nil {
			log.Fatal(err)
		}
		// Print every 10th period (5 s of drive) to keep the demo legible.
		if sess.Steps()%10 == 1 || tick.Switched {
			mark := ""
			if tick.Switched {
				mark = fmt.Sprintf("#%d", tick.Toggles)
			}
			fmt.Printf("%8.1f %10.2f %10.2f %8d %8s\n",
				tick.Time, tick.NetW, tick.IdealW, tick.Groups, mark)
		}
	}

	res := sess.Result()
	fmt.Printf("\nsession summary after %d periods\n", sess.Steps())
	fmt.Printf("energy harvested: %.1f J (%.1f%% of ideal)\n",
		res.EnergyOutJ, 100*res.EnergyOutJ/res.IdealEnergyJ)
	fmt.Printf("switch events   : %d (%.2f J overhead)\n", res.SwitchEvents, res.OverheadJ)
	fmt.Printf("TEG efficiency  : %.2f%% thermal→electrical\n", 100*res.AvgTEGEff)
}
