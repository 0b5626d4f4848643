package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tegrecon/internal/core"
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

	opts.Workers = 1
	serial, err := RunAll(context.Background(), sys, tr, fourSchemes(t, sys), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Force the concurrent path even on a single-CPU box.
	opts.Workers = max(4, runtime.NumCPU())
	parallel, err := RunAll(context.Background(), sys, tr, fourSchemes(t, sys), opts)
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
	opts := DefaultOptions()
	opts.Workers = 4
	ctrls := []core.Controller{newBaseline(t, sys), newINOR(t, sys)}
	rs, err := RunAll(context.Background(), sys, tr, ctrls, opts)
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
		opts := DefaultOptions()
		opts.Workers = workers
		rs, err := RunAll(context.Background(), sys, tr, []core.Controller{newBaseline(t, sys), erroringCtrl{}, newBaseline(t, sys)}, opts)
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
