package sim

import (
	"fmt"
	"strings"

	"tegrecon/internal/core"
	"tegrecon/internal/predict"
)

// SchemeConfig carries the knobs a scheme builder needs beyond the
// system itself. The zero value picks the paper's settings, so callers
// that only want "a DNOR for this rig" pass SchemeConfig{}.
type SchemeConfig struct {
	// HorizonTicks is DNOR's prediction horizon tp in control ticks
	// (0 picks the paper's 4; the other schemes ignore it).
	HorizonTicks int
	// TickSeconds is the control period DNOR prices its lookahead with
	// (0 picks the paper's 0.5 s).
	TickSeconds float64
	// Predictor overrides DNOR's default MLR temperature predictor —
	// the predictor-ablation hook. Nil keeps MLR.
	Predictor predict.Predictor
	// ExtraMarginJ is added to DNOR's switching-overhead test in joules
	// (0 is the paper's E_old ≤ E_new − E_overhead rule).
	ExtraMarginJ float64
}

// MaxHorizonTicks bounds DNOR's prediction horizon on every entry: the
// facade, the serve API, scenario specs and checkpoint restore. Each
// decision predicts horizon rows of N temperatures, so an unbounded
// horizon is an unbounded allocation.
const MaxHorizonTicks = 10000

// Controller and Decision name the registry's product: what Scheme.New
// builds and what it decides every control period.
type (
	Controller = core.Controller
	Decision   = core.Decision
)

// Scheme is one registered reconfiguration scheme: a name, a one-line
// description, and a factory for its controller. The registry mirrors
// drive's cycle registry — one exported list (SchemeNames/SchemeByName)
// behind the CLI usage text, the experiment drivers and the serve API,
// so none of them can drift from the set of schemes that actually run.
type Scheme struct {
	// Name is the registry key and the label controllers report
	// ("Baseline", "INOR", "DNOR", "EHTR").
	Name string
	// Description says what the scheme does.
	Description string
	// Predictive marks schemes whose behaviour depends on
	// SchemeConfig's HorizonTicks, Predictor and ExtraMarginJ, so
	// callers that carry an explicit horizon (the experiment drivers)
	// know to validate it, and scheme variants that set those knobs on
	// any other scheme are refused.
	Predictive bool

	build func(sys *System, cfg SchemeConfig) (core.Controller, error)
}

// String names the scheme.
func (s Scheme) String() string { return s.Name }

// New builds a fresh controller instance for the system. Controllers
// carry mutable state (incumbent configuration, predictor history), so
// every concurrent run needs its own instance — call New once per job.
func (s Scheme) New(sys *System, cfg SchemeConfig) (core.Controller, error) {
	if s.build == nil {
		return nil, fmt.Errorf("sim: scheme %q has no builder", s.Name)
	}
	if sys == nil {
		return nil, fmt.Errorf("sim: nil system")
	}
	if cfg.HorizonTicks < 0 || cfg.HorizonTicks > MaxHorizonTicks {
		return nil, fmt.Errorf("sim: prediction horizon %d outside [0, %d]", cfg.HorizonTicks, MaxHorizonTicks)
	}
	if cfg.HorizonTicks == 0 {
		cfg.HorizonTicks = 4
	}
	if cfg.TickSeconds == 0 {
		cfg.TickSeconds = DefaultOptions().TickSeconds
	}
	return s.build(sys, cfg)
}

// schemeRegistry lists the paper's four schemes in presentation order:
// the static baseline first, then the reconfiguring controllers.
var schemeRegistry = []Scheme{
	{
		Name:        "Baseline",
		Description: "static 10-group array, never reconfigures (Table I baseline)",
		build: func(sys *System, _ SchemeConfig) (core.Controller, error) {
			return core.NewBaseline10x10(sys.Modules)
		},
	},
	{
		Name:        "INOR",
		Description: "instantaneous near-optimal reconfiguration, O(N) per period (Algorithm 1)",
		build: func(sys *System, _ SchemeConfig) (core.Controller, error) {
			eval, err := core.NewEvaluator(sys.Spec, sys.Conv)
			if err != nil {
				return nil, err
			}
			return core.NewINOR(eval)
		},
	},
	{
		Name:        "DNOR",
		Description: "prediction-based dynamic reconfiguration with switching-overhead gating (Algorithm 2)",
		Predictive:  true,
		build: func(sys *System, cfg SchemeConfig) (core.Controller, error) {
			eval, err := core.NewEvaluator(sys.Spec, sys.Conv)
			if err != nil {
				return nil, err
			}
			p := cfg.Predictor
			if p == nil {
				p, err = predict.NewMLR(predict.DefaultMLROptions())
				if err != nil {
					return nil, err
				}
			}
			return core.NewDNOR(eval, core.DNOROptions{
				Predictor:    p,
				HorizonTicks: cfg.HorizonTicks,
				TickSeconds:  cfg.TickSeconds,
				Overhead:     sys.Overhead,
				ExtraMargin:  cfg.ExtraMarginJ,
			})
		},
	},
	{
		Name:        "EHTR",
		Description: "prior-work exhaustive reconstruction, O(N³) per period",
		build: func(sys *System, _ SchemeConfig) (core.Controller, error) {
			eval, err := core.NewEvaluator(sys.Spec, sys.Conv)
			if err != nil {
				return nil, err
			}
			return core.NewEHTR(eval)
		},
	},
}

// Schemes returns the registered reconfiguration schemes in registry
// order.
func Schemes() []Scheme {
	return append([]Scheme(nil), schemeRegistry...)
}

// SchemeNames returns the registered scheme names in registry order —
// the one list behind SchemeByName's unknown-scheme error, the CLI
// usage text and the serve API's /v1/schemes endpoint.
func SchemeNames() []string {
	names := make([]string, len(schemeRegistry))
	for i, s := range schemeRegistry {
		names[i] = s.Name
	}
	return names
}

// SchemeByName looks a scheme up case-insensitively ("static" is
// accepted as an alias for the baseline). An unknown name's error lists
// every valid scheme name.
func SchemeByName(name string) (Scheme, error) {
	if strings.EqualFold(name, "static") {
		name = "Baseline"
	}
	for _, s := range schemeRegistry {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return Scheme{}, fmt.Errorf("sim: unknown scheme %q (valid schemes: %s)", name, strings.Join(SchemeNames(), ", "))
}
