package tegrecon_test

import (
	"context"
	"fmt"
	"log"

	"tegrecon"
)

// ExampleSimulate runs the paper's DNOR controller over a short
// synthetic drive — the batch path, where a complete trace exists up
// front. The assertions print booleans rather than raw joules so the
// example's output stays stable across architectures.
func ExampleSimulate() {
	cfg := tegrecon.DefaultDriveConfig()
	cfg.Duration = 60
	tr, err := tegrecon.SynthesizeDrive(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys := tegrecon.DefaultSystem()
	ctrl, err := tegrecon.NewControllerByName("DNOR", sys)
	if err != nil {
		log.Fatal(err)
	}
	opts := tegrecon.DefaultSimOptions()

	res, err := tegrecon.Simulate(context.Background(), sys, tr, ctrl, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scheme:", res.Scheme)
	fmt.Println("harvested energy:", res.EnergyOutJ > 0)
	fmt.Println("stayed under ideal:", res.EnergyOutJ <= res.IdealEnergyJ)
	// Output:
	// scheme: DNOR
	// harvested energy: true
	// stayed under ideal: true
}

// ExampleNewSession drives the same physics one control period at a
// time — the online path, where conditions arrive as the vehicle runs.
// Summaries from the stepped session and the batch Simulate over the
// same trace are identical.
func ExampleNewSession() {
	cfg := tegrecon.DefaultDriveConfig()
	cfg.Duration = 60
	tr, err := tegrecon.SynthesizeDrive(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys := tegrecon.DefaultSystem()
	ctrl, err := tegrecon.NewControllerByName("INOR", sys)
	if err != nil {
		log.Fatal(err)
	}
	opts := tegrecon.DefaultSimOptions()
	opts.KeepTicks = false       // stream instead of buffering every tick
	opts.StartTime = tr.Times[0] // align the session clock with the trace

	sess, err := tegrecon.NewSession(sys, ctrl, opts)
	if err != nil {
		log.Fatal(err)
	}
	for sess.Now() <= tr.Times[0]+tr.Duration() {
		cond, err := tegrecon.ConditionsAt(tr, sess.Now())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.Step(cond); err != nil {
			log.Fatal(err)
		}
	}
	res := sess.Result()

	ctrl2, err := tegrecon.NewControllerByName("INOR", sys)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := tegrecon.Simulate(context.Background(), sys, tr, ctrl2, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("periods stepped:", sess.Steps() == 121)
	fmt.Println("matches batch run:", res.EnergyOutJ == batch.EnergyOutJ)
	// Output:
	// periods stepped: true
	// matches batch run: true
}
