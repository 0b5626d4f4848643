package faults

import (
	"testing"

	"tegrecon/internal/array"
)

func TestNewPlanValidation(t *testing.T) {
	if _, err := NewPlan(0, nil); err == nil {
		t.Error("zero modules should error")
	}
	if _, err := NewPlan(10, []Event{{TimeS: 1, Module: 10, To: array.FailedOpen}}); err == nil {
		t.Error("out-of-range module should error")
	}
	if _, err := NewPlan(10, []Event{{TimeS: -1, Module: 0, To: array.FailedOpen}}); err == nil {
		t.Error("negative time should error")
	}
	if _, err := NewPlan(10, []Event{{TimeS: 1, Module: 0, To: array.ModuleHealth(9)}}); err == nil {
		t.Error("unknown state should error")
	}
}

func TestPlanOrdersEvents(t *testing.T) {
	p, err := NewPlan(5, []Event{
		{TimeS: 10, Module: 1, To: array.FailedOpen},
		{TimeS: 5, Module: 2, To: array.FailedShort},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Modules() != 5 {
		t.Fatalf("plan %+v", p)
	}
	tr, err := NewTracker(p)
	if err != nil {
		t.Fatal(err)
	}
	h, changed, err := tr.AdvanceTo(6)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || h[2] != array.FailedShort || h[1] != array.Healthy {
		t.Errorf("after t=6: changed=%v health=%v", changed, h)
	}
	h, changed, err = tr.AdvanceTo(11)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || h[1] != array.FailedOpen {
		t.Errorf("after t=11: changed=%v health=%v", changed, h)
	}
	if n := failedCount(h); n != 2 {
		t.Errorf("failed count = %d", n)
	}
}

func TestTrackerNoChangeReportsFalse(t *testing.T) {
	p, _ := NewPlan(3, []Event{{TimeS: 5, Module: 0, To: array.FailedOpen}})
	tr, _ := NewTracker(p)
	if _, changed, err := tr.AdvanceTo(1); err != nil || changed {
		t.Errorf("t=1: changed=%v err=%v", changed, err)
	}
	tr.AdvanceTo(6)
	if _, changed, _ := tr.AdvanceTo(7); changed {
		t.Error("no new events should report no change")
	}
}

func TestTrackerRejectsTimeTravel(t *testing.T) {
	p, _ := NewPlan(3, []Event{{TimeS: 5, Module: 0, To: array.FailedOpen}})
	tr, _ := NewTracker(p)
	tr.AdvanceTo(6)
	if _, _, err := tr.AdvanceTo(2); err == nil {
		t.Error("going backwards past a consumed event should error")
	}
}

// failedCount returns the number of non-healthy modules in h.
func failedCount(h []array.ModuleHealth) int {
	n := 0
	for _, m := range h {
		if m != array.Healthy {
			n++
		}
	}
	return n
}

func TestTrackerRepair(t *testing.T) {
	p, _ := NewPlan(2, []Event{
		{TimeS: 1, Module: 0, To: array.FailedOpen},
		{TimeS: 2, Module: 0, To: array.Healthy},
	})
	tr, _ := NewTracker(p)
	h, _, _ := tr.AdvanceTo(1.5)
	if failedCount(h) != 1 {
		t.Error("module should be failed at t=1.5")
	}
	h, changed, _ := tr.AdvanceTo(2.5)
	if !changed || failedCount(h) != 0 {
		t.Error("repair did not apply")
	}
}

func TestNewTrackerNilPlan(t *testing.T) {
	if _, err := NewTracker(nil); err == nil {
		t.Error("nil plan should error")
	}
}

func TestRandomPlanProperties(t *testing.T) {
	p, err := RandomPlan(50, 10, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 10 {
		t.Fatalf("%d events", p.Len())
	}
	seen := map[int]bool{}
	for _, e := range p.events {
		if e.TimeS <= 0 || e.TimeS >= 800 {
			t.Errorf("event time %v outside (0, 800)", e.TimeS)
		}
		if seen[e.Module] {
			t.Errorf("module %d failed twice", e.Module)
		}
		seen[e.Module] = true
	}
	// Deterministic for a seed.
	p2, _ := RandomPlan(50, 10, 800, 3)
	for i := range p.events {
		if p.events[i] != p2.events[i] {
			t.Fatal("RandomPlan not deterministic")
		}
	}
}

func TestRandomPlanValidation(t *testing.T) {
	if _, err := RandomPlan(5, 6, 100, 1); err == nil {
		t.Error("more failures than modules should error")
	}
	if _, err := RandomPlan(5, 2, 0, 1); err == nil {
		t.Error("zero duration should error")
	}
	if _, err := RandomPlan(5, -1, 100, 1); err == nil {
		t.Error("negative count should error")
	}
}
