package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"tegrecon/internal/core"
	"tegrecon/internal/drive"
)

// decisionDigests pins, per GOARCH, the SHA-256 of every decision a
// scheme makes when replayed over a recorded live WLTC sequence (see
// TestDecisionDigest). Go may fuse x*y+z into one FMA on some
// architectures, so each one needs its own pins; an architecture
// without an entry skips the check.
var decisionDigests = map[string]map[string]string{
	"amd64": {
		"N100/INOR": "0fe823fc9a6b07b0854530c6b825e2a69d59d23ef9561e8cccfc3c0186ac0c57",
		"N100/DNOR": "0c602dacaf33cafe38247cac02b7a4e6869860a5b76da7b192a5b0dfbe498fa9",
		"N100/EHTR": "c8b0f8a17c8ede4040518911115f30f99e9f62a3d429eaff31d5c384a12ee651",
		"N500/INOR": "fc7d7dd9c8aa2cc3e75e0b873e4f39a91e017b07820e2b3c31ec381fdd3930f0",
		"N500/DNOR": "7bb73b8ca41e125db4a4c34d3ef6a8f27826cbe5bc1af1be0d9414707f2967b0",
		"N500/EHTR": "847d86fdd300bba07dd6770a33e1ff83ba7933eabf1ce829b2c02ac3601af227",
	},
}

// digestTicks is the length of each recorded live sequence.
const digestTicks = 200

// sensedRecorder is a Controller that keeps a copy of every sensed
// distribution and ambient it is asked to decide on before delegating.
type sensedRecorder struct {
	core.Controller
	temps    [][]float64
	ambientC []float64
}

func (r *sensedRecorder) Decide(tick int, tempsC []float64, ambientC float64) (core.Decision, error) {
	r.temps = append(r.temps, append([]float64(nil), tempsC...))
	r.ambientC = append(r.ambientC, ambientC)
	return r.Controller.Decide(tick, tempsC, ambientC)
}

// recordSensed drives an n-module INOR session through the first
// digestTicks control periods of the embedded WLTC cycle, with the
// default sensor noise and deterministic runtime, and returns what its
// controller saw.
func recordSensed(t *testing.T, n int) *sensedRecorder {
	t.Helper()
	cycle, err := drive.CycleByName("wltc")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := drive.FromSpeedSchedule(drive.DefaultSynthConfig(), cycle.Schedule())
	if err != nil {
		t.Fatal(err)
	}
	sys := DefaultSystem()
	sys.Modules = n
	ctrl := newScheme(t, "INOR", sys)
	rec := &sensedRecorder{Controller: ctrl}
	opts := DefaultOptions()
	opts.KeepTicks = false
	sess, err := NewSession(sys, rec, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < digestTicks; k++ {
		cond, err := drive.ConditionsAt(tr, tr.Times[0]+float64(k)*opts.TickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(cond); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

func newScheme(t *testing.T, name string, sys *System) core.Controller {
	t.Helper()
	sch, err := SchemeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := sch.New(sys, SchemeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// decisionDigest replays rec through a fresh controller of the named
// scheme and hashes every decision's group starts and the bits of its
// expected power, in tick order.
func decisionDigest(t *testing.T, scheme string, n int, rec *sensedRecorder) string {
	t.Helper()
	sys := DefaultSystem()
	sys.Modules = n
	ctrl := newScheme(t, scheme, sys)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for k, temps := range rec.temps {
		d, err := ctrl.Decide(k, temps, rec.ambientC[k])
		if err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
		put(uint64(len(d.Config.Starts)))
		for _, s := range d.Config.Starts {
			put(uint64(s))
		}
		put(math.Float64bits(d.Expected))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecisionDigest is the standing bit-identity referee for the
// decide kernels: INOR, DNOR and EHTR replayed over live sensed
// sequences at N=100 and N=500 must reproduce the pinned digests
// exactly. A change that alters any decided bit must re-pin them in a
// visible diff.
func TestDecisionDigest(t *testing.T) {
	pins, ok := decisionDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no decision digests pinned for GOARCH=%s", runtime.GOARCH)
	}
	for _, n := range []int{100, 500} {
		rec := recordSensed(t, n)
		if len(rec.temps) != digestTicks {
			t.Fatalf("N=%d: recorded %d decisions, want %d", n, len(rec.temps), digestTicks)
		}
		for _, scheme := range []string{"INOR", "DNOR", "EHTR"} {
			key := fmt.Sprintf("N%d/%s", n, scheme)
			t.Run(key, func(t *testing.T) {
				if got := decisionDigest(t, scheme, n, rec); got != pins[key] {
					t.Errorf("decision digest %s, pinned %s", got, pins[key])
				}
			})
		}
	}
}
