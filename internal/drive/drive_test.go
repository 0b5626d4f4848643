package drive

import (
	"math"
	"testing"

	"tegrecon/internal/stats"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultSynthConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []SynthConfig{
		{Duration: 0, DT: 0.5},
		{Duration: 800, DT: 0},
		{Duration: 800, DT: 1000},
		{Duration: 800, DT: 0.5, AmbientC: -80},
		{Duration: 800, DT: 0.5, AmbientC: 25, ThermostatOpenC: 95, ThermostatFullC: 90},
		{Duration: 800, DT: 0.5, AmbientC: 25, RadiatorPaths: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSynthesizeShape(t *testing.T) {
	cfg := DefaultSynthConfig()
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSamples := int(cfg.Duration/cfg.DT) + 1
	if tr.Len() != wantSamples {
		t.Errorf("samples = %d, want %d", tr.Len(), wantSamples)
	}
	if math.Abs(tr.Duration()-cfg.Duration) > cfg.DT {
		t.Errorf("duration = %v", tr.Duration())
	}
	for _, ch := range []string{ChanSpeed, ChanCoolantInC, ChanCoolantFlow, ChanAmbientC, ChanAirFlow} {
		if tr.ChannelIndex(ch) < 0 {
			t.Errorf("missing channel %s", ch)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig()
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Times {
		for c := range a.Channels {
			if a.Values[i][c] != b.Values[i][c] {
				t.Fatalf("trace not deterministic at sample %d channel %d", i, c)
			}
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	cfg := DefaultSynthConfig()
	a, _ := Synthesize(cfg)
	cfg.Seed = 99
	b, _ := Synthesize(cfg)
	same := true
	col := a.ChannelIndex(ChanSpeed)
	for i := range a.Times {
		if a.Values[i][col] != b.Values[i][col] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical speed profiles")
	}
}

func TestPhysicalRanges(t *testing.T) {
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	speed, _ := tr.Column(ChanSpeed)
	cool, _ := tr.Column(ChanCoolantInC)
	flow, _ := tr.Column(ChanCoolantFlow)
	air, _ := tr.Column(ChanAirFlow)
	for i := range speed {
		if speed[i] < 0 || speed[i] > 130 {
			t.Fatalf("sample %d: speed %v out of range", i, speed[i])
		}
		if cool[i] < 25 || cool[i] > 115 {
			t.Fatalf("sample %d: coolant %v out of range", i, cool[i])
		}
		if flow[i] <= 0 || flow[i] > 1 {
			t.Fatalf("sample %d: per-path flow %v out of range", i, flow[i])
		}
		if air[i] <= 0 || air[i] > 2 {
			t.Fatalf("sample %d: per-path air flow %v out of range", i, air[i])
		}
	}
}

func TestWarmStartOperatingWindow(t *testing.T) {
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	cool, _ := tr.Column(ChanCoolantInC)
	s, err := stats.Summarize(cool)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-started engine should live in the thermostat window most of
	// the time.
	if s.Mean < 78 || s.Mean > 100 {
		t.Errorf("mean coolant %v°C outside operating window", s.Mean)
	}
	// And it must actually fluctuate — flat temps would make the
	// prediction experiments vacuous.
	if s.Max-s.Min < 3 {
		t.Errorf("coolant swing only %v K", s.Max-s.Min)
	}
}

func TestColdStartWarmsUp(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.WarmStart = false
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cool, _ := tr.Column(ChanCoolantInC)
	if cool[0] > 40 {
		t.Errorf("cold start begins at %v°C", cool[0])
	}
	last := cool[len(cool)-1]
	if last < 70 {
		t.Errorf("engine failed to warm up over the trace: %v°C", last)
	}
	if last <= cool[0] {
		t.Error("temperature did not rise")
	}
}

func TestSpeedProfileHasStops(t *testing.T) {
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	speed, _ := tr.Column(ChanSpeed)
	stops, moving := 0, 0
	for _, v := range speed {
		if v < 1 {
			stops++
		}
		if v > 20 {
			moving++
		}
	}
	if stops == 0 {
		t.Error("urban cycle has no stops")
	}
	if moving == 0 {
		t.Error("urban cycle never moves")
	}
}

func TestFlowTracksSpeed(t *testing.T) {
	// Coolant flow should correlate positively with speed (pump follows
	// engine RPM) on a warm engine.
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	speed, _ := tr.Column(ChanSpeed)
	flow, _ := tr.Column(ChanCoolantFlow)
	ms, mf := stats.Mean(speed), stats.Mean(flow)
	cov, vs, vf := 0.0, 0.0, 0.0
	for i := range speed {
		ds, df := speed[i]-ms, flow[i]-mf
		cov += ds * df
		vs += ds * ds
		vf += df * df
	}
	corr := cov / math.Sqrt(vs*vf)
	// The thermostat limit cycle gates most of the flow variance, so
	// the speed coupling is visible but not dominant.
	if corr < 0.15 {
		t.Errorf("speed/flow correlation %v, want positive", corr)
	}
}

func TestConditionsAt(t *testing.T) {
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	cond, err := ConditionsAt(tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := cond.Validate(); err != nil {
		t.Fatalf("generated conditions invalid: %v", err)
	}
	if cond.AirInletC != 25 {
		t.Errorf("ambient = %v", cond.AirInletC)
	}
}

func TestConditionsAtFeedsRadiator(t *testing.T) {
	tr, err := Synthesize(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	rad := thermal.DefaultRadiator()
	for _, tm := range []float64{0, 200, 400, 600, 800} {
		cond, err := ConditionsAt(tr, tm)
		if err != nil {
			t.Fatal(err)
		}
		temps, err := rad.ModuleTemps(cond, 100)
		if err != nil {
			t.Fatalf("t=%v: %v", tm, err)
		}
		if temps[0] <= temps[99] {
			t.Fatalf("t=%v: no thermal gradient", tm)
		}
	}
}

func TestConditionsAtMissingChannels(t *testing.T) {
	bad := trace.New("x")
	if err := bad.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ConditionsAt(bad, 0); err == nil {
		t.Error("missing channels should error")
	}
}

// TestPathTraceConservesFlow: splitting a trace over a bank's flow
// weights keeps the summed coolant and air flow of every sample, and a
// unit weight reproduces the trace exactly.
func TestPathTraceConservesFlow(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Duration = 20
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bank := &thermal.Bank{Radiator: thermal.DefaultRadiator(), Paths: 9, Maldistribution: 0.4}
	weights, err := bank.FlowWeights()
	if err != nil {
		t.Fatal(err)
	}
	iCool, iAir := tr.ChannelIndex(ChanCoolantFlow), tr.ChannelIndex(ChanAirFlow)
	sumCool := make([]float64, tr.Len())
	sumAir := make([]float64, tr.Len())
	for _, w := range weights {
		path, err := PathTrace(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		for k, row := range path.Values {
			sumCool[k] += row[iCool]
			sumAir[k] += row[iAir]
		}
	}
	paths := float64(len(weights))
	for k, row := range tr.Values {
		if math.Abs(sumCool[k]-paths*row[iCool]) > 1e-12 {
			t.Fatalf("sample %d: coolant flow %v, want %v", k, sumCool[k], paths*row[iCool])
		}
		if math.Abs(sumAir[k]-paths*row[iAir]) > 1e-9 {
			t.Fatalf("sample %d: air flow %v, want %v", k, sumAir[k], paths*row[iAir])
		}
	}
	same, err := PathTrace(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range tr.Values {
		for c, v := range row {
			if same.Values[k][c] != v {
				t.Fatalf("w=1 changed sample %d channel %d: %v vs %v", k, c, same.Values[k][c], v)
			}
		}
	}
}

func TestProfileString(t *testing.T) {
	if Urban.String() != "urban" || Highway.String() != "highway" || Mixed.String() != "mixed" {
		t.Error("profile names wrong")
	}
	if Profile(9).String() == "" {
		t.Error("unknown profile should still format")
	}
}

func TestHighwayProfileFasterThanUrban(t *testing.T) {
	urban := DefaultSynthConfig()
	hw := DefaultSynthConfig()
	hw.Cycle = Highway
	tu, err := Synthesize(urban)
	if err != nil {
		t.Fatal(err)
	}
	th, err := Synthesize(hw)
	if err != nil {
		t.Fatal(err)
	}
	su, _ := tu.Column(ChanSpeed)
	sh, _ := th.Column(ChanSpeed)
	if stats.Mean(sh) <= stats.Mean(su)+15 {
		t.Errorf("highway mean speed %v not well above urban %v", stats.Mean(sh), stats.Mean(su))
	}
	// Highway stops should be rare.
	stopsU, stopsH := 0, 0
	for i := range su {
		if su[i] < 1 {
			stopsU++
		}
		if sh[i] < 1 {
			stopsH++
		}
	}
	if stopsH >= stopsU {
		t.Errorf("highway stops %d not below urban %d", stopsH, stopsU)
	}
}

func TestMixedProfileBetweenExtremes(t *testing.T) {
	mk := func(p Profile) float64 {
		cfg := DefaultSynthConfig()
		cfg.Cycle = p
		tr, err := Synthesize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		col, _ := tr.Column(ChanSpeed)
		return stats.Mean(col)
	}
	u, m, h := mk(Urban), mk(Mixed), mk(Highway)
	if !(u < m && m < h) {
		t.Errorf("mean speeds not ordered: urban %v, mixed %v, highway %v", u, m, h)
	}
}

func TestHighwayStillPhysical(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Cycle = Highway
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cool, _ := tr.Column(ChanCoolantInC)
	for i, v := range cool {
		if v < 25 || v > 115 {
			t.Fatalf("sample %d: coolant %v out of range", i, v)
		}
	}
	// The radiator must still accept the conditions everywhere.
	for _, tm := range []float64{0, 400, 800} {
		cond, err := ConditionsAt(tr, tm)
		if err != nil {
			t.Fatal(err)
		}
		if err := cond.Validate(); err != nil {
			t.Fatalf("t=%v: %v", tm, err)
		}
	}
}
