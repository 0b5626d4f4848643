package core

import (
	"fmt"

	"tegrecon/internal/array"
)

// Static is the non-reconfiguring baseline of Table I: a fixed
// configuration (the paper's 10 × 10 array — ten series groups of ten
// parallel modules) applied for the whole drive.
type Static struct {
	name string
	cfg  array.Config
}

// NewStatic wraps a fixed configuration as a Controller.
func NewStatic(name string, cfg array.Config) (*Static, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if name == "" {
		name = "Baseline"
	}
	return &Static{name: name, cfg: cfg}, nil
}

// NewBaseline10x10 returns the paper's baseline for an n-module array:
// ten equal series groups (n must be divisible into ten non-empty
// groups).
func NewBaseline10x10(nModules int) (*Static, error) {
	if nModules < 10 {
		return nil, fmt.Errorf("core: 10-group baseline needs ≥10 modules, got %d", nModules)
	}
	cfg, err := array.Uniform(nModules, 10)
	if err != nil {
		return nil, err
	}
	return NewStatic("Baseline", cfg)
}

// Name implements Controller.
func (c *Static) Name() string { return c.name }

// Reset implements Controller.
func (c *Static) Reset() {}

// Decide implements Controller: always the fixed configuration, with
// zero ComputeTime, since a hard-wired array runs no algorithm.
// Switched is never reported — the paper's baseline has no switch
// fabric (Table I prints "/" for its overhead), so unlike the
// reconfiguring schemes it has no power-on commissioning reprogram to
// price.
func (c *Static) Decide(tick int, tempsC []float64, ambientC float64) (Decision, error) {
	if len(tempsC) != c.cfg.N {
		return Decision{}, fmt.Errorf("core: %d temperatures for %d-module baseline", len(tempsC), c.cfg.N)
	}
	return Decision{Config: c.cfg}, nil
}
