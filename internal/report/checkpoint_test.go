package report

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tegrecon/internal/array"
	"tegrecon/internal/charger"
	"tegrecon/internal/drive"
	"tegrecon/internal/faults"
	"tegrecon/internal/sim"
	"tegrecon/internal/thermal"
)

// liveSessionState runs a real session partway through a WLTC segment
// and snapshots it — the round-trip tests exercise the encoder on
// state a live engine actually produces (awkward floats, DNOR
// incumbent, predictor window), not hand-picked values.
func liveSessionState(t testing.TB, scheme string) *sim.SessionState {
	t.Helper()
	sys := sim.DefaultSystem()
	sys.Modules = 24
	opts := sim.DefaultOptions()
	opts.DeterministicRuntime = true
	opts.KeepTicks = true
	opts.Battery = true
	plan, err := faults.NewPlan(24, []faults.Event{
		{TimeS: 40, Module: 3, To: array.FailedOpen},
		{TimeS: 95, Module: 11, To: array.FailedShort},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.FaultPlan = plan
	prof := charger.DefaultProfile()
	opts.ChargeProfile = &prof

	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := drive.DefaultSynthConfig()
	cfg.Duration = 75 * opts.TickSeconds
	tr, err := cycle.Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sim.SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sch.New(sys, sim.SchemeConfig{TickSeconds: opts.TickSeconds})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.NewSession(sys, ctrl, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 73; k++ {
		var c thermal.Conditions
		c, err = drive.ConditionsAt(tr, tr.Times[0]+float64(k)*opts.TickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = sess.Step(c); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointRoundTripByteIdentical is the schema's core property:
// marshal → unmarshal → marshal reproduces the exact bytes, and the
// decoded state is structurally identical to the input (fault plan and
// charge profile included) — for every scheme, so both the memoryless
// and the stateful (DNOR incumbent + predictor window) shapes of the
// payload are covered.
func TestCheckpointRoundTripByteIdentical(t *testing.T) {
	for _, scheme := range sim.SchemeNames() {
		t.Run(scheme, func(t *testing.T) {
			st := liveSessionState(t, scheme)
			b1, err := MarshalCheckpoint(st)
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalCheckpoint(b1)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := MarshalCheckpoint(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("re-marshal not byte-identical:\n1st: %s\n2nd: %s", b1, b2)
			}
			// The decoded state must match the original field-for-field.
			// FaultPlan is an opaque pointer — compare through its
			// serialization surface, then blank it for the DeepEqual.
			if st.Options.FaultPlan != nil {
				if back.Options.FaultPlan == nil {
					t.Fatal("fault plan dropped by round trip")
				}
				if !reflect.DeepEqual(st.Options.FaultPlan.Events(), back.Options.FaultPlan.Events()) {
					t.Fatal("fault plan events changed by round trip")
				}
				if st.Options.FaultPlan.Modules() != back.Options.FaultPlan.Modules() {
					t.Fatal("fault plan module count changed by round trip")
				}
			}
			a, b := *st, *back
			a.Options.FaultPlan, b.Options.FaultPlan = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("decoded state differs from original:\nin:  %+v\nout: %+v", a, b)
			}
		})
	}
}

// TestCheckpointRoundTripRestores closes the loop with the sim layer:
// a state that crossed the JSON wire still restores into a live
// session at the right clock position.
func TestCheckpointRoundTripRestores(t *testing.T) {
	st := liveSessionState(t, "DNOR")
	b, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.DefaultSystem()
	sys.Modules = 24
	sess, err := sim.RestoreSession(context.Background(), sys, back)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sess.Steps(), st.Steps; got != want {
		t.Fatalf("restored session at step %d, want %d", got, want)
	}
}

// TestCheckpointVersionMismatch pins the error contract: an unknown
// schema version is rejected with the *found* version named, so a
// client on the wrong schema learns which one it actually sent.
func TestCheckpointVersionMismatch(t *testing.T) {
	st := liveSessionState(t, "INOR")
	b, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = json.RawMessage("7")
	mangled, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	_, err = UnmarshalCheckpoint(mangled)
	if err == nil {
		t.Fatal("version 7 checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("error does not name the found version: %v", err)
	}
}

// TestCheckpointMarshalRejects pins the encoder's guard rails.
func TestCheckpointMarshalRejects(t *testing.T) {
	if _, err := MarshalCheckpoint(nil); err == nil {
		t.Error("nil state accepted")
	}
	if _, err := MarshalCheckpoint(&sim.SessionState{}); err == nil {
		t.Error("state without result accumulator accepted")
	}
}

// TestCheckpointTrackerBatteryStateSurvive spot-checks the nested
// optional payloads rather than trusting DeepEqual alone: the MPPT
// warm start and battery integrators are where a lossy encoding would
// silently break bit-exact resume.
func TestCheckpointTrackerBatteryStateSurvive(t *testing.T) {
	st := liveSessionState(t, "EHTR")
	if st.Tracker == nil || st.Battery == nil {
		t.Fatal("live state missing tracker or battery payload")
	}
	b, err := MarshalCheckpoint(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := *back.Tracker, *st.Tracker; got != want {
		t.Errorf("tracker state changed: %+v != %+v", got, want)
	}
	if got, want := *back.Battery, *st.Battery; got != want {
		t.Errorf("battery state changed: %+v != %+v", got, want)
	}
}
