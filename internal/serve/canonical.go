package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

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
const keyVersion = "tegserve/v4"

// keyBuilder appends a canonical string in place: a run's key is built
// on every cache hit, so fields go straight into one buffer.
type keyBuilder struct{ b []byte }

// newKey starts a key in a domain ("run", "cell", "matrix", "sweep").
func newKey(domain string) *keyBuilder {
	return &keyBuilder{b: append(append(append(make([]byte, 0, 256), keyVersion...), '/'), domain...)}
}

func (k *keyBuilder) field(name string) []byte { return append(append(append(k.b, '|'), name...), '=') }
func (k *keyBuilder) str(name, v string)       { k.b = append(k.field(name), v...) }
func (k *keyBuilder) num(name string, v float64) {
	// 'x' is the hexadecimal floating-point form: exact, canonical and
	// locale-free. 0.1 encodes as 0x1.999999999999ap-04, never a rounded
	// decimal that could collide with a neighbouring value.
	k.b = strconv.AppendFloat(k.field(name), v, 'x', -1, 64)
}
func (k *keyBuilder) int(name string, v int64) { k.b = strconv.AppendInt(k.field(name), v, 10) }
func (k *keyBuilder) bool(name string, v bool) { k.b = strconv.AppendBool(k.field(name), v) }

func (k *keyBuilder) sum() string {
	h := sha256.Sum256(k.b)
	return hex.EncodeToString(h[:])
}

// runKey hashes a run: its normalized one-cell matrix field by field
// (cycle, scheme entry, array size, duration cap, tick, noise, base
// seed, horizon; every other field of a run's matrix is fixed) plus
// the two options the cell leaves to the run, battery and kept ticks.
// It is on every cache hit's path, so it writes the fields directly
// instead of matrixKey's JSON encoding of the whole spec.
func runKey(m *scenario.Matrix, battery, keepTicks bool) string {
	k := newKey("run")
	k.str("cycle", m.Cycles[0].Name)
	k.str("scheme", m.Schemes[0])
	k.int("modules", int64(m.ArraySizes[0]))
	k.num("max_duration_s", m.MaxDurationS)
	k.num("tick_s", m.TickS)
	k.num("noise_c", *m.SensorNoiseC)
	k.int("seed", m.Seed)
	k.int("horizon", int64(m.HorizonTicks))
	k.bool("battery", battery)
	k.bool("ticks", keepTicks)
	return k.sum()
}

// cellKey hashes one scenario-matrix cell. The cell coordinate is
// already canonical and collision-free by construction — scenario
// encodes every axis value (ambient, fault seed offsets, synth-cycle
// parameters, CSV content hashes) hex-exactly into it — so the key
// only needs to add what the coordinate deliberately leaves out: the
// matrix-level run parameters (tick, noise, base seed, converter band)
// and the cell's effective duration, which a matrix-level duration cap
// can change without touching the coordinate. The band is written only
// when it is not the default, so a spec without one keeps the keys it
// had before the band existed. The matrix-level horizon is not among
// them: a predictive scheme's coordinate carries its effective horizon,
// and no other scheme reads one. Keyed per cell, two matrices sharing a
// cell share its cached result.
func cellKey(p matrixParams, cell scenario.Cell) string {
	k := newKey("cell")
	k.num("tick_s", p.m.TickS)
	k.num("noise_c", *p.m.SensorNoiseC)
	k.int("seed", p.m.Seed)
	if band := p.m.ConverterInputV; band != nil {
		k.num("conv_min_v", band[0])
		k.num("conv_max_v", band[1])
	}
	k.num("dur_s", cell.DurationS)
	k.str("coord", cell.Coord)
	return k.sum()
}
