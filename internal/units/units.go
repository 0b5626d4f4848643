// Package units provides the Celsius-to-kelvin conversion, the small
// numeric helpers (clamping, golden-section search) shared by the
// thermal, electrical and control packages of the TEG reconfiguration
// system, and the price of one unit of counted algorithm work.
//
// Conventions used across the repository:
//
//   - Temperatures are carried as float64 in degrees Celsius unless a name
//     ends in K (kelvin). Temperature differences are in kelvin.
//   - Electrical quantities are SI: volts, amperes, ohms, watts, joules.
//   - Flow rates are mass flows in kg/s.
//   - Time is seconds (float64) inside models, time.Duration at the edges.
package units

import (
	"math"
	"time"
)

// ZeroCelsiusK is 0 °C expressed in kelvin.
const ZeroCelsiusK = 273.15

// CToK converts a temperature from degrees Celsius to kelvin.
func CToK(c float64) float64 { return c + ZeroCelsiusK }

// Clamp limits v to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(v, lo, hi float64) float64 {
	if lo > hi {
		panic("units: Clamp with lo > hi")
	}
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}

// workUnitNs prices one unit of counted algorithm work (one
// multiply-add or per-module step), calibrated once from tegbench's
// decide_live_inor_n100 (docs/ARCHITECTURE.md, "Controller runtime");
// kernel speed-ups do not move it.
const workUnitNs = 8.05

// WorkTime is the runtime of the given count of work units: what the
// controllers charge as Decision.ComputeTime and predict.Evaluate
// reports as a predictor's runtime.
func WorkTime(units int64) time.Duration { return time.Duration(float64(units) * workUnitNs) }

// invPhi is 1/φ, the golden-section search ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenMax maximises the unimodal function f on [lo, hi] using
// golden-section search and returns the maximising argument and the
// maximum value. tol is the termination interval width; iterations are
// additionally capped to guard against non-unimodal input.
func GoldenMax(f func(float64) float64, lo, hi, tol float64) (x, fx float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	a, b := lo, hi
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < 200 && (b-a) > tol; i++ {
		if fc > fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	x = (a + b) / 2
	return x, f(x)
}
