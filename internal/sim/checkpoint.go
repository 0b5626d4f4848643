// Session checkpointing: Snapshot freezes a live Session into a
// SessionState — a plain serializable struct holding every piece of
// cross-period state the engine carries — and RestoreSession rebuilds a
// Session from one that replays the remainder of the run bit-for-bit
// identical to the uninterrupted original (the golden property
// TestCheckpointRestoreBitIdentical pins for all four schemes).
//
// What a checkpoint must capture, and why each piece matters:
//
//   - Result accumulators (energy, overhead, switch counts, tick
//     buffer): the run's output so far.
//   - Controller state (core.StateCarrier): DNOR's incumbent, its
//     pricing power, and the predictor's observation window — without
//     these a restored DNOR re-enters its warmup and diverges.
//   - MPPT tracker (mppt.TrackerState) and the idle flag: the P&O warm
//     start; a cold tracker walks a different search path.
//   - Battery integrators (battery.State): state of charge feeds the
//     charge profile's voltage scheduling.
//   - RNG position: the sensor-noise stream. math/rand sources are not
//     serializable, but the session counts its NormFloat64 draws, and
//     replaying that many draws from the seed lands on the identical
//     stream position (NormFloat64's rejection sampling makes the draw
//     count, not steps×modules arithmetic, the only safe cursor).
//   - The previous topology (prevStarts) and step count: switch
//     overhead is priced against the previous period's configuration,
//     and DNOR's decision cadence is a function of the tick index.
//
// The fault tracker needs no state: module health is a pure, monotone
// replay of the plan up to the session clock, so the restored session's
// first Step reconstructs it exactly.
//
// The JSON encoding of a SessionState lives in internal/report
// (MarshalCheckpoint), next to the versioned Result schema it extends.

package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"tegrecon/internal/array"
	"tegrecon/internal/battery"
	"tegrecon/internal/core"
	"tegrecon/internal/mppt"
)

// SessionState is a frozen Session: everything needed to rebuild one
// that continues the run bit-exactly. It is a plain data struct — no
// live references into the session that produced it — so it may cross
// goroutines, be serialized (internal/report), or be held indefinitely.
//
// Options rides along by value. Its two non-serializable fields keep
// their in-process meaning here (OnTick, FaultPlan are honored by
// RestoreSession) but do not survive the report encoding; a service
// restoring from JSON re-attaches its own observers.
type SessionState struct {
	// Scheme is the controller's registry name (Controller.Name); the
	// restore path rebuilds the controller through SchemeByName.
	Scheme string
	// HorizonTicks is DNOR's prediction horizon; 0 for the other
	// schemes (SchemeConfig's zero value then picks the paper default,
	// which is only consulted by schemes that use a horizon).
	HorizonTicks int
	// Modules is the plant size the state was captured on; RestoreSession
	// rejects a system of any other size.
	Modules int
	// Options are the captured session options. Validated through
	// Options.Validate on restore, exactly like a fresh session's.
	Options Options
	// Steps is the number of control periods already simulated.
	Steps int
	// RNGDraws is the sensor-noise stream position in NormFloat64 calls.
	RNGDraws int64
	// Result is a deep copy of the accumulated result (including the
	// tick buffer when Options.KeepTicks).
	Result *Result
	// TotalRuntime, EffSum and EffN are the running aggregates behind
	// Result's derived AvgRuntime / AvgTEGEff.
	TotalRuntime time.Duration
	EffSum       float64
	EffN         int
	// Prev is the previous period's topology (group starts); nil before
	// the first Step. Switch overhead for the next reprogram is priced
	// against it.
	Prev     []int
	HavePrev bool
	// Tracker is the MPPT warm-start state; nil when no usable circuit
	// has been tracked yet. TrackerIdled records a tracking outage, so
	// the restored session cold-restarts exactly when the original
	// would have.
	Tracker      *mppt.TrackerState
	TrackerIdled bool
	// Battery is the charge integrator state; nil when Options.Battery
	// is off.
	Battery *battery.State
	// Controller is the cross-period controller state; nil for
	// schemes that carry no decision state (Baseline, INOR, EHTR).
	Controller *core.ControllerState
}

// Snapshot freezes the session into a SessionState. It may be called
// between any two Steps (from the stepping goroutine, or under the same
// lock that serializes Step); the returned state shares no storage with
// the session. Stepping may continue afterwards — a snapshot is a copy,
// not a terminator.
//
// Snapshot fails only when the controller carries state it cannot
// expose: a stateful controller that does not implement
// core.StateCarrier, or a DNOR whose predictor lacks a checkpointable
// history (predict.HistoryCarrier).
func (s *Session) Snapshot() (*SessionState, error) {
	st := &SessionState{
		Scheme:       s.ctrl.Name(),
		Modules:      s.sys.Modules,
		Options:      s.opts,
		Steps:        s.steps,
		RNGDraws:     s.rngDraws,
		Result:       s.Result().Clone(),
		TotalRuntime: s.totalRuntime,
		EffSum:       s.effSum,
		EffN:         s.effN,
		HavePrev:     s.havePrev,
		TrackerIdled: s.trackerIdled,
	}
	if h, ok := s.ctrl.(interface{ HorizonTicks() int }); ok {
		st.HorizonTicks = h.HorizonTicks()
	}
	if s.havePrev {
		st.Prev = append([]int(nil), s.prev.Starts...)
	}
	if s.tracker != nil {
		ts := s.tracker.State()
		st.Tracker = &ts
	}
	if s.bat != nil {
		bs := s.bat.State()
		st.Battery = &bs
	}
	if carrier, ok := s.ctrl.(core.StateCarrier); ok {
		cs, err := carrier.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot of %s session: %w", st.Scheme, err)
		}
		st.Controller = cs
	}
	return st, nil
}

// RestoreSession rebuilds a live Session from a snapshot: the
// controller is constructed fresh through the scheme registry (so the
// scheme must be a registered one), the state is replayed into it, and
// the RNG is fast-forwarded to the captured stream position. The
// restored session's next Step produces the identical Tick the
// original's would have.
//
// The snapshot's Options are validated through the same Options.Validate
// as a fresh session's — a checkpoint is input, not trusted state.
// Callers may adjust the non-physics observer fields (OnTick,
// KeepTicks) on st.Options before restoring; changing physics knobs
// (tick length, seed, noise) breaks the bit-exact contract and, where
// detectable, is rejected.
//
// The RNG fast-forward is the one part of a restore whose cost scales
// with the checkpoint's claimed progress, so it checks ctx periodically
// and aborts with ctx.Err() when the caller gives up; services restoring
// untrusted checkpoints run it under the same bounded queue as their
// other simulation work.
func RestoreSession(ctx context.Context, sys *System, st *SessionState) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("sim: nil session state")
	}
	if sys == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if sys.Modules != st.Modules {
		return nil, fmt.Errorf("sim: checkpoint for %d modules restored onto a %d-module system", st.Modules, sys.Modules)
	}
	if st.Steps < 0 || st.RNGDraws < 0 || st.EffN < 0 {
		return nil, fmt.Errorf("sim: checkpoint with negative progress (steps %d, rng draws %d, eff samples %d)", st.Steps, st.RNGDraws, st.EffN)
	}
	// The session draws exactly Modules NormFloat64 values per step
	// (tickSense), so Steps×Modules is the one genuine stream position.
	// A forged position beyond it would otherwise buy an arbitrarily
	// long replay loop below from a few bytes of checkpoint; one short
	// of it would silently restore onto another noise stream.
	draws := int64(st.Steps) * int64(st.Modules)
	if st.RNGDraws > draws || (st.Modules > 0 && int64(st.Steps) > math.MaxInt64/int64(st.Modules)) {
		return nil, fmt.Errorf("sim: checkpoint rng position %d exceeds %d steps × %d modules draws", st.RNGDraws, st.Steps, st.Modules)
	}
	if st.RNGDraws < draws {
		return nil, fmt.Errorf("sim: checkpoint rng position %d falls short of %d steps × %d modules draws", st.RNGDraws, st.Steps, st.Modules)
	}
	if st.Result == nil {
		return nil, fmt.Errorf("sim: checkpoint without a result accumulator")
	}
	sch, err := SchemeByName(st.Scheme)
	if err != nil {
		return nil, fmt.Errorf("sim: restoring session: %w", err)
	}
	ctrl, err := sch.New(sys, SchemeConfig{HorizonTicks: st.HorizonTicks, TickSeconds: st.Options.TickSeconds})
	if err != nil {
		return nil, err
	}
	// NewSession runs the full option/system validation path and builds
	// the power-on state; everything below overwrites that state with
	// the captured one.
	sess, err := NewSession(sys, ctrl, st.Options)
	if err != nil {
		return nil, err
	}
	sess.steps = st.Steps
	sess.totalRuntime = st.TotalRuntime
	sess.effSum = st.EffSum
	sess.effN = st.EffN
	sess.trackerIdled = st.TrackerIdled
	sess.res = st.Result.Clone()
	for i := int64(0); i < st.RNGDraws; i++ {
		// One ctx poll per 64k draws keeps the abort latency well under
		// a millisecond without the check dominating the replay.
		if i&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: restoring session: %w", err)
			}
		}
		sess.rng.NormFloat64()
	}
	sess.rngDraws = st.RNGDraws
	if st.HavePrev {
		cfg, err := array.NewConfig(st.Modules, st.Prev)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint previous topology: %w", err)
		}
		sess.prev = sess.sc.setPrev(cfg)
		sess.havePrev = true
	}
	if st.Tracker != nil {
		sess.tracker, err = mppt.FromState(*st.Tracker)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint MPPT state: %w", err)
		}
	}
	if st.Battery != nil {
		if sess.bat == nil {
			return nil, fmt.Errorf("sim: checkpoint carries battery state but options disable the battery")
		}
		sess.bat, err = battery.FromState(*st.Battery)
		if err != nil {
			return nil, fmt.Errorf("sim: checkpoint battery state: %w", err)
		}
	} else if sess.bat != nil {
		return nil, fmt.Errorf("sim: options enable the battery but the checkpoint has no battery state")
	}
	if st.Controller != nil {
		carrier, ok := ctrl.(core.StateCarrier)
		if !ok {
			return nil, fmt.Errorf("sim: checkpoint carries %s controller state but the rebuilt controller cannot restore it", st.Scheme)
		}
		if err := carrier.RestoreState(st.Controller); err != nil {
			return nil, err
		}
	}
	return sess, nil
}
