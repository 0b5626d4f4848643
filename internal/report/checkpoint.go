// Session checkpoint JSON: the versioned, round-trippable encoding of
// sim.SessionState — the full-session extension of the Result schema
// next door (result.go). The same encoding discipline applies:
// durations travel as integer nanoseconds, floats as Go's shortest
// round-trip decimal form, and the field layout is fixed by structs
// (never maps), so Marshal(Unmarshal(b)) reproduces b byte-for-byte —
// the property the serve layer's checkpoint/restore endpoints and the
// restored-run bit-identity golden stand on.
//
// Two session fields do not survive the wire on purpose:
//
//   - Options.OnTick is an in-process observer; a restoring service
//     attaches its own.
//   - Nothing else: fault plans and charge profiles, the two
//     behavior-bearing pointers, are encoded in full (a checkpoint that
//     silently dropped them would restore a *different* session).

package report

import (
	"encoding/json"
	"fmt"
	"time"

	"tegrecon/internal/array"
	"tegrecon/internal/battery"
	"tegrecon/internal/charger"
	"tegrecon/internal/core"
	"tegrecon/internal/faults"
	"tegrecon/internal/mppt"
	"tegrecon/internal/sim"
)

// CheckpointVersion is the schema version stamped into every encoded
// checkpoint; UnmarshalCheckpoint rejects anything else, naming the
// version it found. Version 1 checkpoints are refused: their ledgers
// may have priced controller runtime at zero or from the wall clock.
const CheckpointVersion = 2

// checkpointEnvelope is the on-wire form: version outside, state inside.
type checkpointEnvelope struct {
	Version    int            `json:"version"`
	Checkpoint checkpointJSON `json:"checkpoint"`
}

type checkpointJSON struct {
	Scheme         string          `json:"scheme"`
	HorizonTicks   int             `json:"horizon_ticks,omitempty"`
	Modules        int             `json:"modules"`
	Options        optionsJSON     `json:"options"`
	Steps          int             `json:"steps"`
	RNGDraws       int64           `json:"rng_draws"`
	Result         resultJSON      `json:"result"`
	TotalRuntimeNS int64           `json:"total_runtime_ns"`
	EffSum         float64         `json:"eff_sum"`
	EffN           int             `json:"eff_n"`
	Prev           []int           `json:"prev,omitempty"`
	HavePrev       bool            `json:"have_prev"`
	Tracker        *trackerJSON    `json:"tracker,omitempty"`
	TrackerIdled   bool            `json:"tracker_idled"`
	Battery        *batteryJSON    `json:"battery,omitempty"`
	Controller     *controllerJSON `json:"controller,omitempty"`
}

type optionsJSON struct {
	TickSeconds   float64      `json:"tick_s"`
	SensorNoiseC  float64      `json:"sensor_noise_c"`
	Seed          int64        `json:"seed"`
	Battery       bool         `json:"battery"`
	SelfCheck     bool         `json:"self_check,omitempty"`
	StartTime     float64      `json:"start_time"`
	KeepTicks     bool         `json:"keep_ticks"`
	FaultPlan     *planJSON    `json:"fault_plan,omitempty"`
	ChargeProfile *profileJSON `json:"charge_profile,omitempty"`
}

type planJSON struct {
	Modules int         `json:"modules"`
	Events  []eventJSON `json:"events"`
}

type eventJSON struct {
	TimeS  float64 `json:"time_s"`
	Module int     `json:"module"`
	To     int     `json:"to"`
}

type profileJSON struct {
	BulkV         float64 `json:"bulk_v"`
	AbsorptionV   float64 `json:"absorption_v"`
	FloatV        float64 `json:"float_v"`
	AbsorptionSoC float64 `json:"absorption_soc"`
	FloatSoC      float64 `json:"float_soc"`
}

type trackerJSON struct {
	InitialStep float64 `json:"initial_step"`
	MinStep     float64 `json:"min_step"`
	Shrink      float64 `json:"shrink"`
	Grow        float64 `json:"grow"`
	MaxIters    int     `json:"max_iters"`
	IMin        float64 `json:"i_min"`
	IMax        float64 `json:"i_max"`
	Last        float64 `json:"last"`
	OK          bool    `json:"ok"`
}

type batteryJSON struct {
	CapacityWh   float64 `json:"capacity_wh"`
	SoC          float64 `json:"soc"`
	ChargeEff    float64 `json:"charge_eff"`
	FloatVoltage float64 `json:"float_voltage"`
	AbsorbedJ    float64 `json:"absorbed_j"`
}

type controllerJSON struct {
	Modules         int         `json:"modules"`
	Incumbent       []int       `json:"incumbent,omitempty"`
	HaveIncumbent   bool        `json:"have_incumbent"`
	LastPower       float64     `json:"last_power"`
	PredictorWindow [][]float64 `json:"predictor_window,omitempty"`
}

// MarshalCheckpoint encodes a session snapshot as compact versioned
// JSON. The encoding is deterministic: the same state always marshals
// to the same bytes.
func MarshalCheckpoint(st *sim.SessionState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("report: nil session state")
	}
	if st.Result == nil {
		return nil, fmt.Errorf("report: session state without a result accumulator")
	}
	j := checkpointJSON{
		Scheme:         st.Scheme,
		HorizonTicks:   st.HorizonTicks,
		Modules:        st.Modules,
		Steps:          st.Steps,
		RNGDraws:       st.RNGDraws,
		Result:         resultToJSON(st.Result),
		TotalRuntimeNS: int64(st.TotalRuntime),
		EffSum:         st.EffSum,
		EffN:           st.EffN,
		HavePrev:       st.HavePrev,
		TrackerIdled:   st.TrackerIdled,
	}
	if st.HavePrev {
		j.Prev = st.Prev
	}
	o := st.Options
	j.Options = optionsJSON{
		TickSeconds:  o.TickSeconds,
		SensorNoiseC: o.SensorNoiseC,
		Seed:         o.Seed,
		Battery:      o.Battery,
		SelfCheck:    o.SelfCheck,
		StartTime:    o.StartTime,
		KeepTicks:    o.KeepTicks,
	}
	if o.FaultPlan != nil {
		p := &planJSON{Modules: o.FaultPlan.Modules()}
		for _, e := range o.FaultPlan.Events() {
			p.Events = append(p.Events, eventJSON{TimeS: e.TimeS, Module: e.Module, To: int(e.To)})
		}
		j.Options.FaultPlan = p
	}
	if o.ChargeProfile != nil {
		j.Options.ChargeProfile = &profileJSON{
			BulkV:         o.ChargeProfile.BulkV,
			AbsorptionV:   o.ChargeProfile.AbsorptionV,
			FloatV:        o.ChargeProfile.FloatV,
			AbsorptionSoC: o.ChargeProfile.AbsorptionSoC,
			FloatSoC:      o.ChargeProfile.FloatSoC,
		}
	}
	if st.Tracker != nil {
		to := st.Tracker.Options
		j.Tracker = &trackerJSON{
			InitialStep: to.InitialStep,
			MinStep:     to.MinStep,
			Shrink:      to.Shrink,
			Grow:        to.Grow,
			MaxIters:    to.MaxIters,
			IMin:        to.IMin,
			IMax:        to.IMax,
			Last:        st.Tracker.Last,
			OK:          st.Tracker.OK,
		}
	}
	if st.Battery != nil {
		j.Battery = &batteryJSON{
			CapacityWh:   st.Battery.CapacityWh,
			SoC:          st.Battery.SoC,
			ChargeEff:    st.Battery.ChargeEff,
			FloatVoltage: st.Battery.FloatVoltage,
			AbsorbedJ:    st.Battery.AbsorbedJ,
		}
	}
	if st.Controller != nil {
		j.Controller = &controllerJSON{
			Modules:         st.Controller.Modules,
			Incumbent:       st.Controller.Incumbent,
			HaveIncumbent:   st.Controller.HaveIncumbent,
			LastPower:       st.Controller.LastPower,
			PredictorWindow: st.Controller.PredictorWindow,
		}
	}
	return json.Marshal(checkpointEnvelope{Version: CheckpointVersion, Checkpoint: j})
}

// UnmarshalCheckpoint decodes MarshalCheckpoint's output back into a
// session state, rejecting unknown schema versions by naming the
// version found. Structural validation (options, plant size, scheme)
// is sim.RestoreSession's job — this layer only reverses the encoding.
func UnmarshalCheckpoint(b []byte) (*sim.SessionState, error) {
	var env checkpointEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("report: decoding checkpoint: %w", err)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("report: checkpoint schema version %d, want %d", env.Version, CheckpointVersion)
	}
	j := env.Checkpoint
	st := &sim.SessionState{
		Scheme:       j.Scheme,
		HorizonTicks: j.HorizonTicks,
		Modules:      j.Modules,
		Steps:        j.Steps,
		RNGDraws:     j.RNGDraws,
		Result:       resultFromJSON(j.Result),
		TotalRuntime: time.Duration(j.TotalRuntimeNS),
		EffSum:       j.EffSum,
		EffN:         j.EffN,
		Prev:         j.Prev,
		HavePrev:     j.HavePrev,
		TrackerIdled: j.TrackerIdled,
	}
	o := j.Options
	st.Options = sim.Options{
		TickSeconds:  o.TickSeconds,
		SensorNoiseC: o.SensorNoiseC,
		Seed:         o.Seed,
		Battery:      o.Battery,
		SelfCheck:    o.SelfCheck,
		StartTime:    o.StartTime,
		KeepTicks:    o.KeepTicks,
	}
	if o.FaultPlan != nil {
		events := make([]faults.Event, len(o.FaultPlan.Events))
		for i, e := range o.FaultPlan.Events {
			events[i] = faults.Event{TimeS: e.TimeS, Module: e.Module, To: array.ModuleHealth(e.To)}
		}
		plan, err := faults.NewPlan(o.FaultPlan.Modules, events)
		if err != nil {
			return nil, fmt.Errorf("report: checkpoint fault plan: %w", err)
		}
		st.Options.FaultPlan = plan
	}
	if o.ChargeProfile != nil {
		st.Options.ChargeProfile = &charger.Profile{
			BulkV:         o.ChargeProfile.BulkV,
			AbsorptionV:   o.ChargeProfile.AbsorptionV,
			FloatV:        o.ChargeProfile.FloatV,
			AbsorptionSoC: o.ChargeProfile.AbsorptionSoC,
			FloatSoC:      o.ChargeProfile.FloatSoC,
		}
	}
	if j.Tracker != nil {
		st.Tracker = &mppt.TrackerState{
			Options: mppt.Options{
				InitialStep: j.Tracker.InitialStep,
				MinStep:     j.Tracker.MinStep,
				Shrink:      j.Tracker.Shrink,
				Grow:        j.Tracker.Grow,
				MaxIters:    j.Tracker.MaxIters,
				IMin:        j.Tracker.IMin,
				IMax:        j.Tracker.IMax,
			},
			Last: j.Tracker.Last,
			OK:   j.Tracker.OK,
		}
	}
	if j.Battery != nil {
		st.Battery = &battery.State{
			CapacityWh:   j.Battery.CapacityWh,
			SoC:          j.Battery.SoC,
			ChargeEff:    j.Battery.ChargeEff,
			FloatVoltage: j.Battery.FloatVoltage,
			AbsorbedJ:    j.Battery.AbsorbedJ,
		}
	}
	if j.Controller != nil {
		st.Controller = &core.ControllerState{
			Modules:         j.Controller.Modules,
			Incumbent:       j.Controller.Incumbent,
			HaveIncumbent:   j.Controller.HaveIncumbent,
			LastPower:       j.Controller.LastPower,
			PredictorWindow: j.Controller.PredictorWindow,
		}
	}
	return st, nil
}
