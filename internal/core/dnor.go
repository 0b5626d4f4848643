package core

import (
	"fmt"
	"math"

	"tegrecon/internal/array"
	"tegrecon/internal/predict"
	"tegrecon/internal/switchfab"
	"tegrecon/internal/teg"
)

// DNOR is Algorithm 2 — Durable Near-Optimal Reconfiguration. Every
// tp+1 control periods it runs INOR on the sensed temperatures to get a
// candidate configuration, forecasts the next tp distributions with its
// predictor (MLR in the paper), prices both the incumbent and the
// candidate over the prediction window, and switches only when the
// candidate's energy advantage exceeds the switching overhead:
//
//	switch ⇔ E_old ≤ E_new − E_overhead
//
// Between decision points the incumbent configuration is simply held, so
// the amortised runtime is lower than INOR's even though each decision
// does more work — the paper's 13× speedup over EHTR. ComputeTime
// counts the predictor's Observe every tick, plus INOR's count, the
// predictor's fit and forecast and 2·(tp+1)·N window pricing units on
// a full decision tick.
type DNOR struct {
	eval      *Evaluator
	pred      predict.Predictor
	horizon   int // tp, in control ticks
	tickSecs  float64
	overhead  switchfab.OverheadModel
	threshold float64 // extra margin on the switch test, joules (0 = paper rule)

	// cur is the incumbent configuration, backed by curStarts — storage
	// the controller owns, because the candidate configs coming out of
	// the evaluator alias the scratch and are overwritten next decision.
	cur       array.Config
	curStarts []int
	haveCur   bool
	lastPower float64 // delivered power estimate for overhead pricing

	// sc holds the reusable work arrays of the whole decision path:
	// INOR's candidate search and the 2·(tp+1) window pricings per
	// decision run entirely over these buffers, so a steady-state Decide
	// allocates only what the predictor does.
	sc     *scratch
	window [][]float64 // pricing window: sensed temps + forecast
}

// DNOROptions configures the controller.
type DNOROptions struct {
	// Predictor forecasts temperature distributions; the paper selects
	// MLR. Required.
	Predictor predict.Predictor
	// HorizonTicks is tp in control periods (the paper predicts 2 s at
	// a 1 s decision granularity; at the 0.5 s control period used here
	// the equivalent is 4 ticks).
	HorizonTicks int
	// TickSeconds is the control period length.
	TickSeconds float64
	// Overhead prices hypothetical switches.
	Overhead switchfab.OverheadModel
	// ExtraMargin (J) biases the test toward holding; 0 reproduces the
	// paper's rule exactly.
	ExtraMargin float64
}

// NewDNOR builds the controller.
func NewDNOR(eval *Evaluator, opts DNOROptions) (*DNOR, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	if opts.Predictor == nil {
		return nil, fmt.Errorf("core: DNOR needs a predictor")
	}
	if opts.HorizonTicks < 1 {
		return nil, fmt.Errorf("core: DNOR horizon %d < 1 tick", opts.HorizonTicks)
	}
	// NaN fails every comparison, so each bound is written to let it
	// through to the finiteness test: a NaN margin would make the switch
	// test always false, and DNOR would silently never switch.
	if opts.TickSeconds <= 0 || math.IsNaN(opts.TickSeconds) || math.IsInf(opts.TickSeconds, 0) {
		return nil, fmt.Errorf("core: DNOR tick length %g is not positive and finite", opts.TickSeconds)
	}
	if opts.ExtraMargin < 0 || math.IsNaN(opts.ExtraMargin) || math.IsInf(opts.ExtraMargin, 0) {
		return nil, fmt.Errorf("core: DNOR margin %g is not non-negative and finite", opts.ExtraMargin)
	}
	return &DNOR{
		eval:      eval,
		pred:      opts.Predictor,
		horizon:   opts.HorizonTicks,
		tickSecs:  opts.TickSeconds,
		overhead:  opts.Overhead,
		threshold: opts.ExtraMargin,
		sc:        newScratch(eval),
	}, nil
}

// adopt copies cand into the controller-owned incumbent storage.
func (c *DNOR) adopt(cand array.Config) {
	c.curStarts = append(c.curStarts[:0], cand.Starts...)
	c.cur = array.Config{N: cand.N, Starts: c.curStarts}
	c.haveCur = true
}

// Name implements Controller.
func (c *DNOR) Name() string { return "DNOR" }

// HorizonTicks reports the prediction horizon tp the controller was
// built with — recorded into session checkpoints so a restored session
// can rebuild an identically configured DNOR.
func (c *DNOR) HorizonTicks() int { return c.horizon }

// Reset implements Controller: no incumbent, and an empty predictor.
func (c *DNOR) Reset() {
	c.haveCur = false
	c.lastPower = 0
	c.pred.Reset()
}

// period returns the decision period tp+1 in ticks.
func (c *DNOR) period() int { return c.horizon + 1 }

// Decide implements Controller. The returned Config is either the
// controller-owned incumbent or (on adoption ticks) a copy into it, so
// unlike INOR/EHTR it stays stable until the next adoption — but
// callers should still honour the general Decision.Config contract and
// copy anything they keep across periods.
func (c *DNOR) Decide(tick int, tempsC []float64, ambientC float64) (Decision, error) {
	if err := c.pred.Observe(tempsC); err != nil {
		return Decision{}, err
	}
	work, predictWork := c.pred.Work(c.horizon)

	// Non-decision ticks just hold the incumbent.
	if c.haveCur && tick%c.period() != 0 {
		return Decision{
			Config:      c.cur,
			Expected:    c.lastPower,
			Switched:    false,
			ComputeTime: workTime(work),
		}, nil
	}

	// Invoke INOR(Ti) for the candidate. cand aliases the scratch winner
	// buffers: anything held past this Decide must be copied (adopt).
	cand, candOp, err := c.eval.configureTempsAt(c.sc, tempsC, ambientC, false)
	if err != nil {
		return Decision{}, err
	}
	work += c.sc.work

	// First decision, or predictor still warming up: adopt the
	// candidate outright (there is no incumbent worth defending).
	if !c.haveCur || !c.pred.Ready() {
		switched := !c.haveCur || !c.cur.Equal(cand)
		c.adopt(cand)
		c.lastPower = candOp.Delivered
		return Decision{
			Config:      c.cur,
			Expected:    candOp.Delivered,
			Switched:    switched,
			ComputeTime: workTime(work),
		}, nil
	}
	old := c.cur

	// Forecast the next tp distributions; the current tick's sensed
	// temperatures stand in for step 0 of the tp+1-tick window.
	forecast, err := c.pred.Predict(c.horizon)
	if err != nil {
		return Decision{}, err
	}
	c.window = c.window[:0]
	c.window = append(c.window, tempsC)
	c.window = append(c.window, forecast...)
	window := c.window

	eOld, eNew, err := c.windowEnergies(old, cand, window, ambientC)
	if err != nil {
		return Decision{}, err
	}
	eOverhead, err := c.overhead.SwitchEstimate(old, cand, c.lastPower)
	if err != nil {
		return Decision{}, err
	}

	work += predictWork + 2*int64(len(window))*int64(len(tempsC))
	d := Decision{ComputeTime: workTime(work)}
	if eOld <= eNew-eOverhead-c.threshold {
		switched := !old.Equal(cand)
		c.adopt(cand) // overwrites old's backing — all comparisons done above
		c.lastPower = candOp.Delivered
		d.Config = c.cur
		d.Expected = candOp.Delivered
		d.Switched = switched
	} else {
		d.Config = c.cur
		// Refresh the incumbent's expected power at today's temps.
		d.Expected = eOld / (float64(len(window)) * c.tickSecs)
		c.lastPower = d.Expected
		d.Switched = false
	}
	return d, nil
}

// windowEnergies prices the incumbent old and the candidate cand over
// a window of (predicted) temperature distributions: each total is
// Σ delivered-power × tick length, accumulated in window order. Each
// window step's operating points and Norton pairs are built once and
// both configurations are priced against them. Only Delivered is read,
// so the reverse-current check never runs here. It runs entirely over
// the controller's scratch — cand may alias the scratch winner buffers,
// which the pricing never touches.
func (c *DNOR) windowEnergies(old, cand array.Config, window [][]float64, ambientC float64) (eOld, eNew float64, err error) {
	for _, temps := range window {
		// The evaluator's spec was validated at construction, so the
		// Array value is assembled in place over the reused scratch
		// buffer instead of going through array.New every step.
		c.sc.ops = teg.OpsFromTempsInto(c.sc.ops, temps, ambientC)
		c.sc.arr = array.Array{Spec: c.eval.Spec, Ops: c.sc.ops}
		c.sc.arr.NortonInto(&c.sc.nt)
		opOld, _, err := c.eval.bestAt(c.sc, old)
		if err != nil {
			return 0, 0, err
		}
		opNew, _, err := c.eval.bestAt(c.sc, cand)
		if err != nil {
			return 0, 0, err
		}
		eOld += opOld.Delivered * c.tickSecs
		eNew += opNew.Delivered * c.tickSecs
	}
	return eOld, eNew, nil
}
