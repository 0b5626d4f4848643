// Package array models the reconfigurable TEG module array of Fig. 4: N
// physically ordered modules partitioned into consecutive groups, the
// modules of each group wired in parallel and the groups chained in
// series. It provides the configuration representation C(g₁…gₙ) used by
// the reconfiguration algorithms, the equivalent Thevenin circuit of a
// configuration, array-level I–V/MPP evaluation, per-module operating
// currents and the reverse-current constraint of Fig. 3.
package array

import (
	"fmt"
	"strings"
)

// Config is a TEG array configuration C(g₁, g₂, …, gₙ): an ordered
// partition of modules 0…N−1 (0-based internally; the paper's gⱼ are
// 1-based) into len(Starts) consecutive groups. Starts[j] is the index
// of the first module of group j; Starts[0] must be 0 and Starts must be
// strictly increasing and below N.
type Config struct {
	N      int   // total number of modules
	Starts []int // first module index of each group, Starts[0] == 0
}

// NewConfig builds and validates a configuration.
func NewConfig(n int, starts []int) (Config, error) {
	c := Config{N: n, Starts: append([]int(nil), starts...)}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Uniform returns the configuration with groups of equal size; n must
// divide N... it does not: trailing groups absorb the remainder one
// module at a time from the front (sizes differ by at most one). This is
// the static "10×10 baseline" generator: Uniform(100, 10) yields ten
// series groups of ten parallel modules.
func Uniform(nModules, nGroups int) (Config, error) {
	if nGroups <= 0 || nModules <= 0 || nGroups > nModules {
		return Config{}, fmt.Errorf("array: Uniform(%d, %d) infeasible", nModules, nGroups)
	}
	starts := make([]int, nGroups)
	base, rem := nModules/nGroups, nModules%nGroups
	pos := 0
	for j := 0; j < nGroups; j++ {
		starts[j] = pos
		pos += base
		if j < rem {
			pos++
		}
	}
	c := Config{N: nModules, Starts: starts}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// AllSeries returns the configuration with every module in its own group.
func AllSeries(n int) Config {
	starts := make([]int, n)
	for i := range starts {
		starts[i] = i
	}
	return Config{N: n, Starts: starts}
}

// AllParallel returns the single-group configuration.
func AllParallel(n int) Config {
	return Config{N: n, Starts: []int{0}}
}

// Validate checks the structural invariants.
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("array: config with %d modules", c.N)
	}
	if len(c.Starts) == 0 {
		return fmt.Errorf("array: config with no groups")
	}
	if c.Starts[0] != 0 {
		return fmt.Errorf("array: first group must start at module 0, got %d", c.Starts[0])
	}
	for j := 1; j < len(c.Starts); j++ {
		if c.Starts[j] <= c.Starts[j-1] {
			return fmt.Errorf("array: group starts not strictly increasing at %d", j)
		}
	}
	if last := c.Starts[len(c.Starts)-1]; last >= c.N {
		return fmt.Errorf("array: group start %d beyond module count %d", last, c.N)
	}
	return nil
}

// Groups returns the number of series groups n.
func (c Config) Groups() int { return len(c.Starts) }

// GroupBounds returns the half-open module range [lo, hi) of group j.
func (c Config) GroupBounds(j int) (lo, hi int) {
	lo = c.Starts[j]
	if j+1 < len(c.Starts) {
		hi = c.Starts[j+1]
	} else {
		hi = c.N
	}
	return lo, hi
}

// Equal reports whether two configurations are identical.
func (c Config) Equal(o Config) bool {
	if c.N != o.N || len(c.Starts) != len(o.Starts) {
		return false
	}
	for i, s := range c.Starts {
		if o.Starts[i] != s {
			return false
		}
	}
	return true
}

// String renders the configuration compactly, e.g. "C(1,11,21,…)/100"
// using the paper's 1-based group-start convention.
func (c Config) String() string {
	var sb strings.Builder
	sb.WriteString("C(")
	for j, s := range c.Starts {
		if j > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s+1)
	}
	fmt.Fprintf(&sb, ")/%d", c.N)
	return sb.String()
}
