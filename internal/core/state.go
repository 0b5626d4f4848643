package core

import (
	"fmt"

	"tegrecon/internal/array"
	"tegrecon/internal/predict"
)

// ControllerState is the serializable cross-period state of a
// Controller — everything a controller carries from one Decide to the
// next that a session checkpoint must preserve to replay the remainder
// of a run bit-for-bit. The static baseline is memoryless, and INOR
// and EHTR carry only a pricing hint that never changes a decision
// (their scratch is otherwise overwritten each Decide), so only DNOR
// implements the capture/restore pair: its incumbent
// configuration, the delivered-power estimate that prices hypothetical
// switches, and the predictor's observation window.
type ControllerState struct {
	// Modules is the array size the incumbent was decided for.
	Modules int
	// Incumbent is the held configuration's group starts; nil when no
	// incumbent has been adopted yet.
	Incumbent []int
	// HaveIncumbent distinguishes "no incumbent" from an empty slice.
	HaveIncumbent bool
	// LastPower is the incumbent's delivered-power estimate (W) used for
	// overhead pricing.
	LastPower float64
	// PredictorWindow is the predictor's retained observation history,
	// oldest first (see predict.HistoryCarrier).
	PredictorWindow [][]float64
}

// StateCarrier is the optional checkpoint interface of a Controller.
// Controllers that carry state across control periods implement it so
// sessions holding them can be snapshotted and restored bit-exactly; a
// controller that does not implement it is treated as memoryless by the
// checkpoint machinery: true for the baseline, and true in effect for
// INOR and EHTR, whose pricing hint a restored controller may lack
// without changing a decision. Any new
// stateful controller must implement StateCarrier, or sessions using it
// will restore with amnesia.
type StateCarrier interface {
	// CaptureState snapshots the cross-period state. The returned value
	// and its slices are owned by the caller.
	CaptureState() (*ControllerState, error)
	// RestoreState replays a captured snapshot into a freshly built
	// controller of the same configuration.
	RestoreState(st *ControllerState) error
}

// CaptureState implements StateCarrier: the incumbent, its pricing
// power, and the predictor window.
func (c *DNOR) CaptureState() (*ControllerState, error) {
	hc, ok := c.pred.(predict.HistoryCarrier)
	if !ok {
		return nil, fmt.Errorf("core: DNOR predictor %s does not support checkpointing (no predict.HistoryCarrier)", c.pred.Name())
	}
	st := &ControllerState{
		Modules:         c.cur.N,
		HaveIncumbent:   c.haveCur,
		LastPower:       c.lastPower,
		PredictorWindow: hc.CaptureHistory(),
	}
	if c.haveCur {
		st.Incumbent = append([]int(nil), c.cur.Starts...)
	} else {
		st.Modules = 0
	}
	return st, nil
}

// RestoreState implements StateCarrier. The receiver must be freshly
// built (NewDNOR + Reset semantics): restore does not clear state it
// does not set.
func (c *DNOR) RestoreState(st *ControllerState) error {
	if st == nil {
		return fmt.Errorf("core: nil controller state")
	}
	hc, ok := c.pred.(predict.HistoryCarrier)
	if !ok {
		return fmt.Errorf("core: DNOR predictor %s does not support checkpointing (no predict.HistoryCarrier)", c.pred.Name())
	}
	if err := hc.RestoreHistory(st.PredictorWindow); err != nil {
		return err
	}
	c.lastPower = st.LastPower
	if st.HaveIncumbent {
		cfg, err := array.NewConfig(st.Modules, st.Incumbent)
		if err != nil {
			return fmt.Errorf("core: restoring DNOR incumbent: %w", err)
		}
		c.adopt(cfg)
	}
	return nil
}
