// Boiler: the paper's scalability claim (Sections I and VII) as an
// application. An industrial heat-exchanger wall carries a much longer
// TEG chain than a vehicle radiator; this example sweeps the array size
// from 100 to 1600 modules and shows INOR's O(N) runtime staying in
// microseconds while the prior-work O(N³) EHTR reconstruction blows up —
// the reason only the fast algorithm is deployable at boiler scale.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"tegrecon"
)

func main() {
	log.SetFlags(0)

	sys := tegrecon.DefaultSystem()

	fmt.Printf("%-10s %14s %14s %12s %14s\n",
		"modules", "INOR", "EHTR", "speedup", "INOR power (W)")
	for _, n := range []int{100, 200, 400, 800, 1600} {
		// An industrial boiler economiser wall: hotter entrance (180 °C
		// flue-side surface), slower decay than the compact radiator.
		temps := make([]float64, n)
		for i := range temps {
			temps[i] = 60 + 120*math.Exp(-2.2*float64(i)/float64(n))
		}

		inor, err := tegrecon.NewControllerByName("INOR", sys)
		if err != nil {
			log.Fatal(err)
		}
		ehtr, err := tegrecon.NewControllerByName("EHTR", sys)
		if err != nil {
			log.Fatal(err)
		}

		di, err := inor.Decide(0, temps, 30)
		if err != nil {
			log.Fatal(err)
		}
		var ehtrTime time.Duration
		if n <= 800 { // the cubic algorithm becomes impractical beyond this
			de, err := ehtr.Decide(0, temps, 30)
			if err != nil {
				log.Fatal(err)
			}
			ehtrTime = de.ComputeTime
		}

		speedup := "—"
		ehtrCol := "skipped"
		if ehtrTime > 0 {
			speedup = fmt.Sprintf("%.0f×", float64(ehtrTime)/float64(di.ComputeTime))
			ehtrCol = ehtrTime.Round(time.Microsecond).String()
		}
		fmt.Printf("%-10d %14v %14s %12s %14.1f\n",
			n, di.ComputeTime.Round(time.Microsecond), ehtrCol, speedup, di.Expected)
	}
	fmt.Println("\nINOR stays real-time at boiler scale; the O(N³) prior work does not.")
}
