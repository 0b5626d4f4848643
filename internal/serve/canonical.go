package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"

	"tegrecon/internal/scenario"
)

// Content addressing: every cacheable request reduces to a canonical
// string — normalized fields in a fixed order, floats in Go's exact
// hexadecimal form so no two distinct values share a spelling — whose
// SHA-256 keys the result cache. Requests that differ only in surface
// form (scheme name case, an explicit duration equal to the cycle's
// full length) normalize to the same string, so they share one cache
// entry; any physically meaningful difference changes the hash.

// keyVersion tags the canonical form itself: bump it whenever the
// encoding or the physics behind it changes, and every stale cache key
// simply stops matching.
const keyVersion = "tegserve/v2"

type keyBuilder struct{ b strings.Builder }

func (k *keyBuilder) str(name, v string) { k.b.WriteString("|" + name + "=" + v) }
func (k *keyBuilder) num(name string, v float64) {
	// 'x' is the hexadecimal floating-point form: exact, canonical and
	// locale-free. 0.1 encodes as 0x1.999999999999ap-04, never a rounded
	// decimal that could collide with a neighbouring value.
	k.str(name, strconv.FormatFloat(v, 'x', -1, 64))
}
func (k *keyBuilder) int(name string, v int64) { k.str(name, strconv.FormatInt(v, 10)) }
func (k *keyBuilder) bool(name string, v bool) { k.str(name, strconv.FormatBool(v)) }

func (k *keyBuilder) sum() string {
	h := sha256.Sum256([]byte(k.b.String()))
	return hex.EncodeToString(h[:])
}

// runKey hashes a normalized run request.
func runKey(p runParams) string {
	var k keyBuilder
	k.b.WriteString(keyVersion + "/run")
	k.str("cycle", p.cycle.Name)
	k.str("scheme", p.scheme.Name)
	k.num("duration_s", p.durationS)
	k.num("tick_s", p.tickS)
	k.num("noise_c", p.noiseC)
	k.int("seed", p.seed)
	k.int("modules", int64(p.modules))
	k.int("horizon", int64(p.horizon))
	k.bool("battery", p.battery)
	k.bool("det_runtime", p.detRuntime)
	k.bool("ticks", p.keepTicks)
	return k.sum()
}

// cellKey hashes one scenario-matrix cell. The cell coordinate is
// already canonical and collision-free by construction — scenario
// encodes every axis value (ambient, fault seed offsets, synth-cycle
// parameters, CSV content hashes) hex-exactly into it — so the key
// only needs to add what the coordinate deliberately leaves out: the
// matrix-level run parameters (tick, noise, base seed, horizon) and
// the cell's effective duration, which a matrix-level duration cap can
// change without touching the coordinate. Keyed per cell, two matrices
// sharing a cell share its cached result.
func cellKey(p matrixParams, cell scenario.Cell) string {
	var k keyBuilder
	k.b.WriteString(keyVersion + "/cell")
	k.num("tick_s", p.m.TickS)
	k.num("noise_c", *p.m.SensorNoiseC)
	k.int("seed", p.m.Seed)
	k.int("horizon", int64(p.m.HorizonTicks))
	k.num("dur_s", cell.DurationS)
	k.str("coord", cell.Coord)
	return k.sum()
}
