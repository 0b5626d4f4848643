package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tegrecon/internal/core"
	"tegrecon/internal/trace"
)

func newEHTR(t *testing.T, sys *System) core.Controller {
	t.Helper()
	c, err := core.NewEHTR(newEval(t, sys))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fourSchemes builds a fresh DNOR/INOR/EHTR/Baseline set (controllers
// are stateful, so each batch needs its own instances).
func fourSchemes(t *testing.T, sys *System) []core.Controller {
	t.Helper()
	return []core.Controller{newDNOR(t, sys), newINOR(t, sys), newEHTR(t, sys), newBaseline(t, sys)}
}

// runAll runs the controllers over one trace as a batch of the given
// width — the scheme-comparison shape every study builds.
func runAll(sys *System, tr *trace.Trace, ctrls []core.Controller, opts Options, workers int) ([]*Result, error) {
	jobs := make([]Job, len(ctrls))
	for i, c := range ctrls {
		jobs[i] = Job{Sys: sys, Trace: tr, Ctrl: c, Opts: opts}
	}
	return Batch{Workers: workers}.Run(context.Background(), jobs)
}

func TestBatchParallelBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("four-scheme comparison is slow")
	}
	sys := DefaultSystem()
	tr := shortTrace(t)
	opts := DefaultOptions()
	// Only the measured controller wall-clock is irreproducible; drop it
	// so every field of every Result must match bit for bit.
	opts.DeterministicRuntime = true

	serial, err := runAll(sys, tr, fourSchemes(t, sys), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Force the concurrent path even on a single-CPU box.
	parallel, err := runAll(sys, tr, fourSchemes(t, sys), opts, max(4, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("%d serial vs %d parallel results", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Scheme != parallel[i].Scheme {
			t.Fatalf("result %d: order differs (%s vs %s)", i, serial[i].Scheme, parallel[i].Scheme)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: parallel result differs from serial", serial[i].Scheme)
		}
	}
}

func TestBatchKeepsJobOrder(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	ctrls := []core.Controller{newBaseline(t, sys), newINOR(t, sys)}
	rs, err := runAll(sys, tr, ctrls, DefaultOptions(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Scheme != "Baseline" || rs[1].Scheme != "INOR" {
		t.Errorf("order lost: %s, %s", rs[0].Scheme, rs[1].Scheme)
	}
}

// erroringCtrl fails on its first decision.
type erroringCtrl struct{}

func (erroringCtrl) Name() string { return "erroring" }
func (erroringCtrl) Reset()       {}
func (erroringCtrl) Decide(int, []float64, float64) (core.Decision, error) {
	return core.Decision{}, fmt.Errorf("deliberate failure")
}

func TestBatchReportsLowestFailingJob(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	for _, workers := range []int{1, 4} {
		rs, err := runAll(sys, tr, []core.Controller{newBaseline(t, sys), erroringCtrl{}, newBaseline(t, sys)}, DefaultOptions(), workers)
		if err == nil {
			t.Fatalf("workers=%d: batch with failing job did not error", workers)
		}
		if rs != nil {
			t.Errorf("workers=%d: results returned alongside error", workers)
		}
		if !strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "erroring") {
			t.Errorf("workers=%d: error %q does not name the failing job", workers, err)
		}
	}
}

func TestBatchNilSystemErrorsOnEveryPath(t *testing.T) {
	sys := DefaultSystem()
	tr := shortTrace(t)
	for _, workers := range []int{1, 4} {
		jobs := []Job{{Sys: nil, Trace: tr, Ctrl: newBaseline(t, sys), Opts: DefaultOptions()}}
		rs, err := Batch{Workers: workers}.Run(context.Background(), jobs)
		if err == nil || rs != nil {
			t.Errorf("workers=%d: nil system not rejected (%v, %v)", workers, rs, err)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	rs, err := Batch{}.Run(context.Background(), nil)
	if err != nil || rs != nil {
		t.Errorf("empty batch: %v, %v", rs, err)
	}
}
