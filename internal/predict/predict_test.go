package predict

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// synthSeq builds a radiator-like temperature sequence: n modules whose
// temperatures follow a slow common ramp plus per-module offsets and a
// little deterministic wobble.
func synthSeq(ticks, modules int, noise float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, ticks)
	for t := range out {
		base := 80 + 8*math.Sin(float64(t)/40) + 0.02*float64(t)
		row := make([]float64, modules)
		for m := range row {
			decay := math.Exp(-float64(m) / float64(modules/2+1))
			row[m] = 35 + (base-35)*decay + noise*rng.NormFloat64()
		}
		out[t] = row
	}
	return out
}

func TestHistoryPushEvictsAndValidates(t *testing.T) {
	h, err := NewHistory(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.Push([]float64{float64(i), float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 3 {
		t.Errorf("len = %d, want 3", h.Len())
	}
	if h.Tick(0)[0] != 2 || h.Latest()[0] != 4 {
		t.Errorf("window contents wrong: %v … %v", h.Tick(0), h.Latest())
	}
	if h.Modules() != 2 {
		t.Errorf("modules = %d", h.Modules())
	}
	if err := h.Push([]float64{1}); err == nil {
		t.Error("module-count change should error")
	}
	if err := h.Push(nil); err == nil {
		t.Error("empty sample should error")
	}
}

func TestNewHistoryTooSmall(t *testing.T) {
	if _, err := NewHistory(1); err == nil {
		t.Error("capacity 1 should error")
	}
}

func TestHistoryPushCopies(t *testing.T) {
	h, _ := NewHistory(4)
	buf := []float64{1, 2}
	h.Push(buf)
	buf[0] = 99
	if h.Latest()[0] == 99 {
		t.Error("Push must copy the sample")
	}
}

func TestARDatasetShape(t *testing.T) {
	h, _ := NewHistory(10)
	for i := 0; i < 6; i++ {
		h.Push([]float64{float64(i), float64(10 + i)})
	}
	ds := arDataset(h, 3)
	// (6−3) ticks × 2 modules = 6 samples.
	if len(ds) != 6 {
		t.Fatalf("dataset size %d, want 6", len(ds))
	}
	// First sample: module 0, lags [0,1,2] → target 3.
	if ds[0].y != 3 || ds[0].x[0] != 0 || ds[0].x[2] != 2 {
		t.Errorf("first sample %+v", ds[0])
	}
	// Second sample: module 1, lags [10,11,12] → target 13.
	if ds[1].y != 13 || ds[1].x[0] != 10 {
		t.Errorf("second sample %+v", ds[1])
	}
}

func TestARDatasetEmptyWhenShort(t *testing.T) {
	h, _ := NewHistory(10)
	h.Push([]float64{1})
	h.Push([]float64{2})
	if ds := arDataset(h, 3); ds != nil {
		t.Errorf("expected nil dataset, got %d samples", len(ds))
	}
}

func TestMLROptionsValidation(t *testing.T) {
	cases := []MLROptions{
		{Order: 0, Window: 10},
		{Order: 4, Window: 5},
		{Order: 4, Window: 60, Ridge: -1},
	}
	for i, o := range cases {
		if _, err := NewMLR(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMLRLearnsLinearRecurrence(t *testing.T) {
	// Sequence obeying T(t+1) = 0.6·T(t) + 0.4·T(t−1) + 2 exactly:
	// MLR must forecast it almost perfectly.
	mlr, err := NewMLR(MLROptions{Order: 2, Window: 40, Ridge: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	a, b := 50.0, 52.0
	for i := 0; i < 30; i++ {
		if err := mlr.Observe([]float64{b}); err != nil {
			t.Fatal(err)
		}
		a, b = b, 0.6*b+0.4*a+2
	}
	fc, err := mlr.Predict(1)
	if err != nil {
		t.Fatal(err)
	}
	want := b // the next value after the last observed
	if math.Abs(fc[0][0]-want) > 1e-3 {
		t.Errorf("forecast %v, want %v", fc[0][0], want)
	}
}

func TestMLRNotReady(t *testing.T) {
	mlr, _ := NewMLR(DefaultMLROptions())
	if mlr.Ready() {
		t.Error("fresh MLR should not be ready")
	}
	if _, err := mlr.Predict(1); !errors.Is(err, ErrNotReady) {
		t.Errorf("want ErrNotReady, got %v", err)
	}
}

func TestMLRBadHorizon(t *testing.T) {
	mlr, _ := NewMLR(DefaultMLROptions())
	if _, err := mlr.Predict(0); err == nil {
		t.Error("horizon 0 should error")
	}
}

func TestMLRCoefficients(t *testing.T) {
	mlr, _ := NewMLR(MLROptions{Order: 2, Window: 30, Ridge: 1e-9})
	if mlr.coef != nil {
		t.Error("coefficients before fit should be nil")
	}
	seq := synthSeq(25, 3, 0, 1)
	for _, row := range seq {
		mlr.Observe(row)
	}
	if _, err := mlr.Predict(1); err != nil {
		t.Fatal(err)
	}
	if len(mlr.coef) != 3 { // 2 lags + intercept
		t.Fatalf("coef = %v", mlr.coef)
	}
}

func TestMLRAccurateOnSmoothSignal(t *testing.T) {
	seq := synthSeq(200, 10, 0.02, 2)
	res, err := Evaluate(mustMLR(t), seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports ~0.3% worst-case for 2-tick MLR forecasts.
	if res.MAPE > 0.3 {
		t.Errorf("MLR 2-step MAPE = %v%%, want < 0.3%%", res.MAPE)
	}
}

func mustMLR(t *testing.T) *MLR {
	t.Helper()
	m, err := NewMLR(DefaultMLROptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBPNNOptionsValidation(t *testing.T) {
	cases := []BPNNOptions{
		{Order: 0, Window: 30, Hidden: 4, LearnRate: 0.1, Epochs: 1},
		{Order: 4, Window: 4, Hidden: 4, LearnRate: 0.1, Epochs: 1},
		{Order: 4, Window: 30, Hidden: 0, LearnRate: 0.1, Epochs: 1},
		{Order: 4, Window: 30, Hidden: 4, LearnRate: 0, Epochs: 1},
		{Order: 4, Window: 30, Hidden: 4, LearnRate: 0.1, Momentum: 1, Epochs: 1},
		{Order: 4, Window: 30, Hidden: 4, LearnRate: 0.1, Epochs: 0},
	}
	for i, o := range cases {
		if _, err := NewBPNN(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBPNNLearnsSmoothSignal(t *testing.T) {
	n, err := NewBPNN(DefaultBPNNOptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := synthSeq(150, 5, 0.02, 3)
	res, err := Evaluate(n, seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Looser bound than MLR — the net is noisier but must still track.
	if res.MAPE > 1.5 {
		t.Errorf("BPNN 1-step MAPE = %v%%, want < 1.5%%", res.MAPE)
	}
}

func TestBPNNNotReady(t *testing.T) {
	n, _ := NewBPNN(DefaultBPNNOptions())
	if _, err := n.Predict(1); !errors.Is(err, ErrNotReady) {
		t.Errorf("want ErrNotReady, got %v", err)
	}
	if _, err := n.Predict(0); err == nil {
		t.Error("horizon 0 should error")
	}
}

func TestBPNNDeterministicForSeed(t *testing.T) {
	seq := synthSeq(80, 4, 0.05, 4)
	run := func() []float64 {
		n, err := NewBPNN(DefaultBPNNOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range seq {
			n.Observe(row)
		}
		fc, err := n.Predict(1)
		if err != nil {
			t.Fatal(err)
		}
		return fc[0]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BPNN not deterministic at module %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSVROptionsValidation(t *testing.T) {
	cases := []SVROptions{
		{Order: 0, Window: 30, C: 1, Iterations: 5, MaxSamples: 50},
		{Order: 4, Window: 4, C: 1, Iterations: 5, MaxSamples: 50},
		{Order: 4, Window: 30, C: 0, Iterations: 5, MaxSamples: 50},
		{Order: 4, Window: 30, C: 1, Epsilon: -1, Iterations: 5, MaxSamples: 50},
		{Order: 4, Window: 30, C: 1, Iterations: 0, MaxSamples: 50},
		{Order: 4, Window: 30, C: 1, Iterations: 5, MaxSamples: 5},
	}
	for i, o := range cases {
		if _, err := NewSVR(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSVRLearnsSmoothSignal(t *testing.T) {
	s, err := NewSVR(DefaultSVROptions())
	if err != nil {
		t.Fatal(err)
	}
	seq := synthSeq(150, 5, 0.02, 5)
	res, err := Evaluate(s, seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAPE > 1.0 {
		t.Errorf("SVR 1-step MAPE = %v%%, want < 1.0%%", res.MAPE)
	}
}

func TestSVRNotReady(t *testing.T) {
	s, _ := NewSVR(DefaultSVROptions())
	if _, err := s.Predict(1); !errors.Is(err, ErrNotReady) {
		t.Errorf("want ErrNotReady, got %v", err)
	}
}

func TestHoldPredictsLastValue(t *testing.T) {
	p := NewHold()
	if p.Ready() {
		t.Error("fresh Hold should not be ready")
	}
	p.Observe([]float64{50, 60})
	p.Observe([]float64{55, 65})
	fc, err := p.Predict(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fc) != 3 {
		t.Fatalf("horizon rows = %d", len(fc))
	}
	for _, row := range fc {
		if row[0] != 55 || row[1] != 65 {
			t.Errorf("hold forecast %v", row)
		}
	}
	if _, err := p.Predict(0); err == nil {
		t.Error("horizon 0 should error")
	}
}

// rows is a slice-backed Truth.
type rows [][]float64

func (r rows) Len() int                       { return len(r) }
func (r rows) Temps(k int) ([]float64, error) { return append([]float64(nil), r[k]...), nil }

func TestOracleReplaysFuture(t *testing.T) {
	truth := [][]float64{{1}, {2}, {3}, {4}}
	o, err := NewOracle(rows(truth))
	if err != nil {
		t.Fatal(err)
	}
	if o.Ready() {
		t.Error("oracle before first Observe should not be ready")
	}
	o.Observe(truth[0])
	fc, err := o.Predict(2)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0][0] != 2 || fc[1][0] != 3 {
		t.Errorf("oracle forecast %v", fc)
	}
	// Clamp at the end.
	o.Observe(truth[1])
	o.Observe(truth[2])
	o.Observe(truth[3])
	fc, err = o.Predict(2)
	if err != nil {
		t.Fatal(err)
	}
	if fc[0][0] != 4 || fc[1][0] != 4 {
		t.Errorf("clamped oracle forecast %v", fc)
	}
}

func TestOracleNeedsTruth(t *testing.T) {
	if _, err := NewOracle(nil); err == nil {
		t.Error("nil ground truth should error")
	}
	if _, err := NewOracle(rows{}); err == nil {
		t.Error("empty ground truth should error")
	}
}

// TestNewByName: every listed name builds the predictor it names, in
// any case; an unknown name and a truthless oracle are refused.
func TestNewByName(t *testing.T) {
	want := []string{"MLR", "BPNN", "SVR", "Holt", "Hold", "Oracle"}
	for i, name := range Names() {
		p, err := New(strings.ToUpper(name), rows{{1}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != want[i] {
			t.Errorf("New(%q) built %s, want %s", name, p.Name(), want[i])
		}
	}
	if _, err := New("arima", nil); err == nil || !strings.Contains(err.Error(), "mlr, bpnn") {
		t.Errorf("unknown predictor: %v", err)
	}
	if _, err := New("oracle", nil); err == nil {
		t.Error("oracle without truth built")
	}
}

func TestOracleIsPerfectInEvaluate(t *testing.T) {
	seq := synthSeq(60, 4, 0.1, 6)
	o, err := NewOracle(rows(seq))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(o, seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAPE > 1e-9 {
		t.Errorf("oracle MAPE = %v, want 0", res.MAPE)
	}
}

func TestEvaluateRanking(t *testing.T) {
	// On smooth radiator-like data, MLR should beat the Hold baseline —
	// the premise that makes DNOR work.
	seq := synthSeq(200, 8, 0.02, 7)
	mlr := mustMLR(t)
	hold := NewHold()
	rs, err := Compare([]Predictor{mlr, hold}, seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].MAPE >= rs[1].MAPE {
		t.Errorf("MLR MAPE %v not better than Hold %v", rs[0].MAPE, rs[1].MAPE)
	}
}

func TestEvaluateErrors(t *testing.T) {
	seq := synthSeq(30, 2, 0, 8)
	if _, err := Evaluate(mustMLR(t), seq, 0); err == nil {
		t.Error("horizon 0 should error")
	}
	if _, err := Evaluate(mustMLR(t), seq[:3], 5); err == nil {
		t.Error("short sequence should error")
	}
}

func TestEvaluateSeriesTicksAligned(t *testing.T) {
	seq := synthSeq(100, 3, 0.01, 9)
	res, err := Evaluate(mustMLR(t), seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series points")
	}
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].Tick <= res.Series[i-1].Tick {
			t.Fatal("series ticks not increasing")
		}
	}
	if res.Evaluated != len(res.Series)*3 {
		t.Errorf("evaluated %d module-ticks for %d series points of 3 modules", res.Evaluated, len(res.Series))
	}
}

func TestRollForwardFeedback(t *testing.T) {
	// A model that adds 1 each step must produce a ramp under rollForward.
	h, _ := NewHistory(5)
	h.Push([]float64{10})
	h.Push([]float64{11})
	out := rollForward(h, 2, 3, func(x []float64) float64 { return x[len(x)-1] + 1 })
	want := []float64{12, 13, 14}
	for i, w := range want {
		if out[i][0] != w {
			t.Errorf("step %d = %v, want %v", i, out[i][0], w)
		}
	}
}

func TestHoltOptionsValidation(t *testing.T) {
	cases := []HoltOptions{
		{Alpha: 0, Beta: 0.1},
		{Alpha: 1.5, Beta: 0.1},
		{Alpha: 0.5, Beta: -0.1},
		{Alpha: 0.5, Beta: 1.5},
	}
	for i, o := range cases {
		if _, err := NewHolt(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestHoltTracksLinearRamp(t *testing.T) {
	// On a pure ramp, the trend term converges and forecasts become
	// near-exact.
	h, err := NewHolt(DefaultHoltOptions())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 80; k++ {
		if err := h.Observe([]float64{50 + 0.2*float64(k)}); err != nil {
			t.Fatal(err)
		}
	}
	fc, err := h.Predict(3)
	if err != nil {
		t.Fatal(err)
	}
	for step, row := range fc {
		want := 50 + 0.2*float64(80+step)
		if math.Abs(row[0]-want) > 0.1 {
			t.Errorf("step %d: forecast %v, want ≈%v", step, row[0], want)
		}
	}
}

func TestHoltProtocolErrors(t *testing.T) {
	h, _ := NewHolt(DefaultHoltOptions())
	if h.Ready() {
		t.Error("fresh Holt should not be ready")
	}
	if _, err := h.Predict(1); !errors.Is(err, ErrNotReady) {
		t.Errorf("want ErrNotReady, got %v", err)
	}
	if err := h.Observe(nil); err == nil {
		t.Error("empty sample should error")
	}
	h.Observe([]float64{1, 2})
	if err := h.Observe([]float64{1}); err == nil {
		t.Error("module-count change should error")
	}
	h.Observe([]float64{1, 2})
	if _, err := h.Predict(0); err == nil {
		t.Error("horizon 0 should error")
	}
}

func TestHoltBeatsHoldOnTrendingSignal(t *testing.T) {
	seq := synthSeq(200, 6, 0.02, 14)
	h, err := NewHolt(DefaultHoltOptions())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Compare([]Predictor{h, NewHold()}, seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].MAPE >= rs[1].MAPE {
		t.Errorf("Holt MAPE %v not better than Hold %v", rs[0].MAPE, rs[1].MAPE)
	}
}

// TestWorkCountsPinned pins every predictor's closed-form counts at two
// array sizes, once mid-warm-up (10 ticks) and once past a full window
// (64 ticks): the shape of the history decides them, never the data.
func TestWorkCountsPinned(t *testing.T) {
	want := map[string][4][2]int64{ // [N=20 10 ticks, N=20 64, N=100 10, N=100 64] × {observe, predict}
		"mlr":    {{20, 3400}, {20, 6000}, {100, 7000}, {100, 8375}},
		"bpnn":   {{46100, 3840}, {430100, 3840}, {230500, 19200}, {2150500, 19200}},
		"svr":    {{20, 48400}, {20, 160400}, {100, 162000}, {100, 162000}},
		"holt":   {{40, 80}, {40, 80}, {200, 400}, {200, 400}},
		"hold":   {{20, 80}, {20, 80}, {100, 400}, {100, 400}},
		"oracle": {{1, 80}, {1, 80}, {1, 400}, {1, 400}},
	}
	for _, name := range Names() {
		i := 0
		for _, n := range []int{20, 100} {
			seq := synthSeq(64, n, 0.1, 3)
			for _, ticks := range []int{10, 64} {
				p, err := New(name, rows(seq))
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range seq[:ticks] {
					if err := p.Observe(row); err != nil {
						t.Fatal(err)
					}
				}
				obs, pred := p.Work(4)
				if w := want[name][i]; obs != w[0] || pred != w[1] {
					t.Errorf("%s N=%d after %d ticks: Work(4) = (%d, %d), want (%d, %d)", name, n, ticks, obs, pred, w[0], w[1])
				}
				i++
			}
		}
	}
}

// TestEvaluateRuntimeIsCountedWork: Evaluate prices the predictor's
// counted work, not the wall clock, so two evaluations of the same
// predictor on the same sequence report the same, positive Runtime.
func TestEvaluateRuntimeIsCountedWork(t *testing.T) {
	seq := synthSeq(80, 6, 0.05, 12)
	for _, name := range []string{"mlr", "holt", "hold"} {
		var runtimes [2]time.Duration
		for k := range runtimes {
			p, err := New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Evaluate(p, seq, 2)
			if err != nil {
				t.Fatal(err)
			}
			runtimes[k] = res.Runtime
		}
		if runtimes[0] <= 0 || runtimes[0] != runtimes[1] {
			t.Errorf("%s: Runtime %v then %v, want one positive value", name, runtimes[0], runtimes[1])
		}
	}
}
