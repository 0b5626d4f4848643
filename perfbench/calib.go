package main

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Host speed calibration.
//
// The benchmark runs on virtual machines whose CPUs other tenants share,
// and their load changes how fast this machine runs by up to a factor
// of two within a minute, on every CPU at once. No run length averages
// that out. So the benchmark times a fixed reference kernel on both CPUs
// before the first segment of a measured window and after each one, and
// scales each time it reports by the kernel's reference time over its
// time around that segment. The kernel calls nothing in this repository:
// no change to the program under test can make it faster or slower, so
// a program change moves the scaled times as much as the raw ones, while
// a change in host speed moves both the kernel and the program and
// largely cancels out.
//
// A scaled time is the time the work would have taken with the host at
// reference speed, at which one kernel unit takes refKernelMs: about
// its time on the 2-vCPU Intel Xeon virtual machine the benchmark was
// tuned on. A factor below 1 means the host ran slower than that.

// refKernelMs is one kernel unit's time at reference speed.
const refKernelMs = 1.0

const (
	kernelN     = 256
	kernelPass  = 6 // passes of the four parts per unit
	calibCPUs   = 2 // goroutines timing the kernel at once: the load's CPUs
	calibRounds = 5 // units each goroutine times; the median is kept
)

// kernelState is one goroutine's working set: small enough to stay in
// cache, like the per-request state of the program under test.
type kernelState struct {
	xs, sorted []float64
	text       []byte
	counts     map[int]int
	sink       float64
}

func newKernelState() *kernelState {
	k := &kernelState{
		xs:     make([]float64, kernelN),
		sorted: make([]float64, kernelN),
		text:   make([]byte, 0, 32*kernelN),
		counts: make(map[int]int, kernelN),
	}
	for i := range k.xs {
		k.xs[i] = float64(i%37) + 0.25
	}
	return k
}

// unit is one kernel unit: floating-point relaxation, a sort, float
// formatting and parsing, and map updates — the kinds of work a
// simulation step and a JSON response are made of.
func (k *kernelState) unit() {
	for p := 0; p < kernelPass; p++ {
		x := k.sink
		for r := 0; r < 8; r++ {
			for i := range k.xs {
				v := k.xs[i]
				k.xs[i] = 0.5*math.Sqrt(v*v+1) + 0.25*math.Exp(-v*0.01) + x*1e-12
				x += k.xs[i]
			}
		}
		copy(k.sorted, k.xs)
		for i := range k.sorted {
			k.sorted[i] = math.Mod(k.sorted[i]*float64(i*7919%kernelN+1), 97)
		}
		sort.Float64s(k.sorted)
		k.text = k.text[:0]
		for _, v := range k.sorted {
			k.text = strconv.AppendFloat(k.text, v, 'g', -1, 64)
			k.text = append(k.text, ',')
		}
		start := 0
		for i, c := range k.text {
			if c == ',' {
				if v, err := strconv.ParseFloat(string(k.text[start:i]), 64); err == nil {
					x += v * 1e-9
				}
				start = i + 1
			}
		}
		for i := 0; i < 4*kernelN; i++ {
			k.counts[(i*2654435761)%(2*kernelN)] += i
		}
		k.sink = math.Mod(x, 1)
	}
}

var kernelStates = sync.OnceValue(func() []*kernelState {
	out := make([]*kernelState, calibCPUs)
	for i := range out {
		out[i] = newKernelState()
	}
	return out
})

// calibrate times the reference kernel on calibCPUs goroutines at once
// and returns the median unit time, in ms. The median drops a unit that
// a short stall of the host happened to hit.
func calibrate() float64 {
	states := kernelStates()
	times := make([]float64, calibCPUs*calibRounds)
	var wg sync.WaitGroup
	for g, k := range states {
		wg.Add(1)
		go func(g int, k *kernelState) {
			defer wg.Done()
			for r := 0; r < calibRounds; r++ {
				start := time.Now()
				k.unit()
				times[g*calibRounds+r] = float64(time.Since(start).Nanoseconds()) / 1e6
			}
		}(g, k)
	}
	wg.Wait()
	return median(times)
}

// speedFactor is how fast the host ran between two calibrations,
// relative to reference speed.
func speedFactor(beforeMs, afterMs float64) float64 {
	return 2 * refKernelMs / (beforeMs + afterMs)
}
