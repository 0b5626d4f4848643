package drive

import (
	"math"
	"strings"
	"testing"
)

// FuzzReadSchedule feeds arbitrary CSV and channel names through the
// /step endpoint's CSV path: ReadSchedule must never panic, any
// schedule it returns must validate, and FromSpeedSchedule must turn
// that schedule into a sound trace under the default synth config or
// refuse it with an error — never panic, never emit a trace that
// starts off zero, outruns the config's duration or carries a
// non-finite value.
func FuzzReadSchedule(f *testing.F) {
	seeds := []struct{ csv, channel string }{
		{"time_s,speed_kph\n0,0\n10,30\n20,50\n", ""},
		{"time_s,speed_kph\n0,0\n10,30\n", ChanSpeed},
		{"time_s,v\n5,1\n6,2\n7,0\n", "v"},
		{"time_s,v\n0,1\n1,2\n", "speed_kph"},
		{"time_s,speed_kph\n0,0\n0.25,1\n", ""},
		{"time_s,speed_kph\n0,-5\n10,5\n", ""},
		{"time_s,speed_kph\n0,1e308\n10,1e308\n", ""},
		{"time_s,speed_kph\n-1e300,0\n1e300,100\n", ""},
		{"time_s,speed_kph\n0,0\n", ""},
		{"time_s,speed_kph\n0,NaN\n1,2\n", ""},
		{"", ""},
		{"not,a header\n", ""},
	}
	for _, s := range seeds {
		f.Add(s.csv, s.channel)
	}
	cfg := DefaultSynthConfig()
	f.Fuzz(func(t *testing.T, csv, channel string) {
		sched, err := ReadSchedule(strings.NewReader(csv), channel)
		if err != nil {
			return
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("ReadSchedule returned an invalid schedule: %v", err)
		}
		tr, err := FromSpeedSchedule(cfg, sched)
		if err != nil {
			return
		}
		if tr == nil || tr.Len() == 0 {
			t.Fatal("nil or empty trace with nil error")
		}
		if tr.Times[0] != 0 || tr.Duration() > cfg.Duration {
			t.Fatalf("trace spans [%g, %g] s, want [0, ≤ %g]", tr.Times[0], tr.Times[0]+tr.Duration(), cfg.Duration)
		}
		for i, row := range tr.Values {
			for c, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("row %d channel %q: non-finite %g", i, tr.Channels[c], v)
				}
			}
		}
	})
}
