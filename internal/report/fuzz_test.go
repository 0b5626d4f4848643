package report

import (
	"bytes"
	"context"
	"testing"

	"tegrecon/internal/sim"
)

// FuzzUnmarshalCheckpoint feeds arbitrary bytes through the
// from_checkpoint path of POST /v1/sessions. UnmarshalCheckpoint must
// never panic; a state it accepts and MarshalCheckpoint re-encodes must
// reach a byte fixpoint after one more round trip; and within bounds
// like a server's (1..64 modules, at most 1e5 RNG draws to replay)
// sim.RestoreSession must return a session or an error, never panic.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	for _, scheme := range sim.SchemeNames() {
		// Ticks dropped: the kept tick records would make most seeds
		// ten times longer without reaching any new decoding path.
		st := liveSessionState(f, scheme)
		st.Result.Ticks = nil
		b, err := MarshalCheckpoint(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"version":2,"checkpoint":{}}`))
	f.Add([]byte(`{"version":2,"checkpoint":{"modules":3,"steps":2,"rng_draws":6}}`))
	// A version-1 envelope, with the retired option, is refused.
	f.Add([]byte(`{"version":1,"checkpoint":{"modules":3,"options":{"deterministic_runtime":true}}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := UnmarshalCheckpoint(b)
		if err != nil {
			return
		}
		if b1, err := MarshalCheckpoint(st); err == nil {
			back, err := UnmarshalCheckpoint(b1)
			if err != nil {
				t.Fatalf("re-marshaled checkpoint refused: %v\n%s", err, b1)
			}
			b2, err := MarshalCheckpoint(back)
			if err != nil {
				t.Fatalf("second re-marshal failed: %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("no byte fixpoint after a round trip:\n1st: %s\n2nd: %s", b1, b2)
			}
		}
		if st.Modules < 1 || st.Modules > 64 || st.RNGDraws > 1e5 {
			return
		}
		sys := sim.DefaultSystem()
		sys.Modules = st.Modules
		sess, err := sim.RestoreSession(context.Background(), sys, st)
		if err == nil && sess == nil {
			t.Fatal("RestoreSession returned neither a session nor an error")
		}
	})
}
