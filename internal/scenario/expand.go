package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"tegrecon/internal/drive"
	"tegrecon/internal/faults"
	"tegrecon/internal/predict"
	"tegrecon/internal/sim"
	"tegrecon/internal/thermal"
	"tegrecon/internal/trace"
)

// Cell is one point of the expanded matrix: the six axis values, the
// canonical coordinate they encode to, and the seed derived from it.
type Cell struct {
	// Index is the cell's position in the stable (coordinate-sorted)
	// order.
	Index int `json:"index"`
	// Coord is the canonical coordinate string — the cell's identity
	// for seeding, sharding and content addressing.
	Coord string `json:"coord"`

	Cycle           string  `json:"cycle"`
	Scheme          string  `json:"scheme"`
	AmbientC        float64 `json:"ambient_c"`
	CoolantOffsetC  float64 `json:"coolant_offset_c"`
	Paths           int     `json:"paths"`
	Maldistribution float64 `json:"maldistribution"`
	Fault           string  `json:"fault"`
	Modules         int     `json:"modules"`

	// Seed is the cell's derived base seed (fault storms draw from it;
	// per-path job seeds derive from the coordinate too).
	Seed int64 `json:"seed"`
	// DurationS is the cell's simulated span in seconds.
	DurationS float64 `json:"duration_s"`
}

// Expansion is a compiled matrix: the stable cell list and the flat
// sim.Batch job list, with CellOf mapping each job back to its cell
// (a multi-path cell owns several consecutive jobs).
type Expansion struct {
	// Matrix is the normalized spec the expansion was compiled from.
	Matrix *Matrix
	// Cells are in stable coordinate-sorted order.
	Cells []Cell
	// Jobs is the flat batch job list, cell-major.
	Jobs []sim.Job
	// CellOf[j] is the index in Cells of the cell job j belongs to.
	CellOf []int
}

// Subset extracts the given cells (indices into ex.Cells) and their
// jobs as a standalone Expansion — the shard unit: because every
// cell's seed and order derive from its coordinate, running a subset
// produces bit-identical per-cell results to running the whole matrix.
// Cells keep their original Index values; CellOf is remapped onto the
// subset's positions.
func (ex *Expansion) Subset(cells []int) (*Expansion, error) {
	sub := &Expansion{Matrix: ex.Matrix, Cells: make([]Cell, 0, len(cells))}
	pos := map[int]int{}
	for _, ci := range cells {
		if ci < 0 || ci >= len(ex.Cells) {
			return nil, fmt.Errorf("scenario: subset cell %d of %d", ci, len(ex.Cells))
		}
		if _, dup := pos[ci]; dup {
			return nil, fmt.Errorf("scenario: subset repeats cell %d", ci)
		}
		pos[ci] = len(sub.Cells)
		sub.Cells = append(sub.Cells, ex.Cells[ci])
	}
	for j, ci := range ex.CellOf {
		if p, ok := pos[ci]; ok {
			sub.Jobs = append(sub.Jobs, ex.Jobs[j])
			sub.CellOf = append(sub.CellOf, p)
		}
	}
	return sub, nil
}

// Counts sizes a matrix without materialising any traces or
// controllers — the pre-admission estimate transports use to bound a
// request before paying for expansion.
type Counts struct {
	// Cells is the full cross-product size.
	Cells int `json:"cells"`
	// Jobs counts simulation runs (multi-path cells run one per path).
	Jobs int `json:"jobs"`
	// Ticks is the total control-tick volume across all jobs.
	Ticks int64 `json:"ticks"`
	// MaxJobTicks is the largest single job's tick count.
	MaxJobTicks int64 `json:"max_job_ticks"`
	// MaxModules is the largest array size on the size axis.
	MaxModules int `json:"max_modules"`
}

// cycleDuration returns the simulated span of one normalized cycle
// spec under the matrix duration cap, without generating the trace.
func (m *Matrix) cycleDuration(c CycleSpec) (float64, error) {
	var full float64
	switch {
	case c.Name != "":
		cy, err := drive.CycleByName(c.Name)
		if err != nil {
			return 0, err
		}
		full = cy.DurationS
	case c.CSV != "":
		sched, err := drive.ReadSchedule(strings.NewReader(c.CSV), "")
		if err != nil {
			return 0, err
		}
		full = sched.Duration()
	case c.Synth != nil:
		full = c.Synth.DurationS
	default:
		return 0, specErrf("cycle with no source")
	}
	if m.MaxDurationS > 0 && m.MaxDurationS < full {
		return m.MaxDurationS, nil
	}
	return full, nil
}

// Counts sizes the matrix. The receiver must be normalized (the
// result of Normalize): the transports normalize once and size that,
// and a spec Normalize never saw is refused rather than sized from
// unset defaults.
func (m *Matrix) Counts() (Counts, error) {
	if m.TickS <= 0 || m.SensorNoiseC == nil {
		return Counts{}, fmt.Errorf("scenario: Counts of a spec that was not normalized")
	}
	var out Counts
	pathsPerCell := 0
	for _, f := range m.Flows {
		pathsPerCell += f.Paths
	}
	perCycle := len(m.Schemes) * len(m.Ambients) * len(m.Flows) * len(m.Faults) * len(m.ArraySizes)
	for _, c := range m.Cycles {
		dur, err := m.cycleDuration(c)
		if err != nil {
			return Counts{}, err
		}
		ticks := int64(dur/m.TickS) + 1
		out.Cells += perCycle
		out.Jobs += pathsPerCell * len(m.Schemes) * len(m.Ambients) * len(m.Faults) * len(m.ArraySizes)
		out.Ticks += ticks * int64(pathsPerCell*len(m.Schemes)*len(m.Ambients)*len(m.Faults)*len(m.ArraySizes))
		if ticks > out.MaxJobTicks {
			out.MaxJobTicks = ticks
		}
	}
	for _, s := range m.ArraySizes {
		if s > out.MaxModules {
			out.MaxModules = s
		}
	}
	return out, nil
}

// coord builds the canonical coordinate of one cell. Floats are
// hex-exact, so two cells differing in any axis value by even one ULP
// encode to different strings — the property the serve cache key and
// the per-cell seeds both rest on.
func cellCoord(cycleID, scheme string, amb AmbientSpec, fl FlowSpec, faultID string, modules int) string {
	return "cy=" + cycleID +
		";sch=" + scheme +
		";amb=" + hexf(amb.AmbientC) +
		";coff=" + hexf(amb.CoolantOffsetC) +
		";paths=" + strconv.Itoa(fl.Paths) +
		";mal=" + hexf(fl.Maldistribution) +
		";flt=" + faultID +
		";mod=" + strconv.Itoa(modules)
}

// expandState caches the expensive intermediates shared across cells:
// generated base traces (per cycle × ambient), coolant-offset and
// path-scaled variants, one sim.System per array size (all sharing one
// radiator pointer, so a large matrix builds and validates one plant
// per size rather than one per job), and per-cell fault plans.
type expandState struct {
	m       *Matrix
	systems map[int]*sim.System
	rad     *thermal.Radiator
	traces  map[string]*trace.Trace
	weights map[string][]float64
}

// baseTrace generates (or recalls) the cycle's boundary-condition trace
// at one ambient point, with the coolant-inlet offset applied.
func (st *expandState) baseTrace(ci int, c CycleSpec, amb AmbientSpec) (*trace.Trace, error) {
	key := strconv.Itoa(ci) + "|" + hexf(amb.AmbientC) + "|" + hexf(amb.CoolantOffsetC)
	if tr, ok := st.traces[key]; ok {
		return tr, nil
	}
	var (
		tr  *trace.Trace
		err error
	)
	switch {
	case c.Synth != nil:
		var cfg drive.SynthConfig
		cfg, err = c.Synth.synthConfig(amb.AmbientC)
		if err == nil {
			if st.m.MaxDurationS > 0 && st.m.MaxDurationS < cfg.Duration {
				cfg.Duration = st.m.MaxDurationS
			}
			tr, err = drive.Synthesize(cfg)
		}
	default:
		var sched drive.Schedule
		if c.Name != "" {
			var cy drive.Cycle
			if cy, err = drive.CycleByName(c.Name); err == nil {
				sched = cy.Schedule()
			}
		} else {
			sched, err = drive.ReadSchedule(strings.NewReader(c.CSV), "")
		}
		if err == nil {
			cfg := drive.DefaultSynthConfig()
			cfg.AmbientC = amb.AmbientC
			cfg.Duration = st.m.MaxDurationS // 0 → full schedule
			tr, err = drive.FromSpeedSchedule(cfg, sched)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: cycle %s: %w", c.Label, err)
	}
	if amb.CoolantOffsetC != 0 {
		// A radiator cannot be fed coolant colder than its air; the
		// offset clamps at the (constant) cell ambient, mirroring
		// thermal.Conditions.Validate.
		floor := amb.AmbientC
		tr, err = tr.MapChannel(drive.ChanCoolantInC, func(v float64) float64 {
			return math.Max(v+amb.CoolantOffsetC, floor)
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: cycle %s: %w", c.Label, err)
		}
	}
	st.traces[key] = tr
	return tr, nil
}

// pathTrace applies one bank path's flow weight to a base trace
// through drive.PathTrace, memoised per (base, weight).
func (st *expandState) pathTrace(baseKey string, base *trace.Trace, w float64) (*trace.Trace, error) {
	if w == 1 {
		return base, nil
	}
	key := baseKey + "|w=" + hexf(w)
	if tr, ok := st.traces[key]; ok {
		return tr, nil
	}
	tr, err := drive.PathTrace(base, w)
	if err != nil {
		return nil, err
	}
	st.traces[key] = tr
	return tr, nil
}

// flowWeights recalls one flow level's per-path weights.
func (st *expandState) flowWeights(fl FlowSpec) ([]float64, error) {
	key := strconv.Itoa(fl.Paths) + "|" + hexf(fl.Maldistribution)
	if w, ok := st.weights[key]; ok {
		return w, nil
	}
	bank := &thermal.Bank{Radiator: st.rad, Paths: fl.Paths, Maldistribution: fl.Maldistribution}
	w, err := bank.FlowWeights()
	if err != nil {
		return nil, err
	}
	st.weights[key] = w
	return w, nil
}

// system recalls the shared plant for one array size. Systems differ
// only in module count and share the one radiator and the matrix's
// converter band, so every cell of one size runs on the same plant.
func (st *expandState) system(modules int) *sim.System {
	if sys, ok := st.systems[modules]; ok {
		return sys
	}
	sys := sim.DefaultSystem()
	sys.Radiator = st.rad
	sys.Modules = modules
	if band := st.m.ConverterInputV; band != nil {
		sys.Conv.MinInput, sys.Conv.MaxInput = band[0], band[1]
	}
	st.systems[modules] = sys
	return sys
}

// faultPlan builds one cell's fault plan (nil for a fault-free cell).
// A storm's schedule is seeded from stormCoord, the cell coordinate
// without its scheme, so it is reproducible, independent of every other
// grid point's, and the same for every scheme at one grid point: a
// fault study compares schemes under one failure schedule.
func (f FaultSpec) faultPlan(modules int, durationS float64, base int64, stormCoord string) (*faults.Plan, error) {
	switch {
	case len(f.Events) > 0:
		events := make([]faults.Event, len(f.Events))
		for i, e := range f.Events {
			h, err := healthByName(e.To)
			if err != nil {
				return nil, err
			}
			events[i] = faults.Event{TimeS: e.TimeS, Module: e.Module, To: h}
		}
		return faults.NewPlan(modules, events)
	case f.Storm != nil:
		count := f.Storm.Count
		if count == 0 {
			count = int(math.Round(f.Storm.Fraction * float64(modules)))
			if count < 1 {
				count = 1
			}
		}
		if count > modules {
			count = modules
		}
		seed := seedFor(base, stormCoord+"|storm") + f.Storm.SeedOffset
		return faults.RandomPlan(modules, count, durationS, seed)
	default:
		return nil, nil
	}
}

// Expand compiles the matrix into its stable cell and job lists. The
// receiver need not be normalized. Expansion is deterministic: the
// cell order is the lexicographic order of the canonical coordinates
// and every seed is a hash of coordinate and base seed — so the same
// spec always compiles to the same jobs and the same results (the
// engine's controller runtime is counted work), at any worker count,
// in any declaration order, on any shard boundary.
func (m *Matrix) Expand() (*Expansion, error) {
	n, err := m.Normalize()
	if err != nil {
		return nil, err
	}
	st := &expandState{
		m:       n,
		systems: map[int]*sim.System{},
		rad:     thermal.DefaultRadiator(),
		traces:  map[string]*trace.Trace{},
		weights: map[string][]float64{},
	}

	// Pass 1: enumerate coordinates and sort them — the stable order
	// exists before any trace or controller is built.
	type protoCell struct {
		coord string
		// stormCoord is coord without the scheme: a storm drawn from it
		// hits every scheme of a grid point with the same failures.
		stormCoord string
		ci         int // index into n.Cycles
		si         int // index into n.Schemes
		amb        AmbientSpec
		fl         FlowSpec
		fi         int // index into n.Faults
		modules    int
	}
	variants := make([]schemeVariant, len(n.Schemes))
	for si, entry := range n.Schemes {
		if variants[si], err = parseScheme(entry, n.HorizonTicks); err != nil {
			return nil, fmt.Errorf("scenario: scheme %s: %w", entry, err)
		}
	}
	var protos []protoCell
	for ci, cy := range n.Cycles {
		cid := cy.identity()
		for si, v := range variants {
			scheme := v.coord(n.HorizonTicks)
			for _, amb := range n.Ambients {
				for _, fl := range n.Flows {
					for fi, ft := range n.Faults {
						fid := ft.identity()
						for _, modules := range n.ArraySizes {
							protos = append(protos, protoCell{
								coord:      cellCoord(cid, scheme, amb, fl, fid, modules),
								stormCoord: cellCoord(cid, "", amb, fl, fid, modules),
								ci:         ci,
								si:         si,
								amb:        amb,
								fl:         fl,
								fi:         fi,
								modules:    modules,
							})
						}
					}
				}
			}
		}
	}
	sort.Slice(protos, func(i, j int) bool { return protos[i].coord < protos[j].coord })

	// Pass 2: materialise traces, plans, controllers and jobs in the
	// stable order.
	ex := &Expansion{Matrix: n, Cells: make([]Cell, 0, len(protos))}
	for idx, p := range protos {
		cy := n.Cycles[p.ci]
		base, err := st.baseTrace(p.ci, cy, p.amb)
		if err != nil {
			return nil, err
		}
		baseKey := strconv.Itoa(p.ci) + "|" + hexf(p.amb.AmbientC) + "|" + hexf(p.amb.CoolantOffsetC)
		ft := n.Faults[p.fi]
		plan, err := ft.faultPlan(p.modules, base.Duration(), n.Seed, p.stormCoord)
		if err != nil {
			return nil, fmt.Errorf("scenario: cell %s: %w", p.coord, err)
		}
		weights, err := st.flowWeights(p.fl)
		if err != nil {
			return nil, fmt.Errorf("scenario: cell %s: %w", p.coord, err)
		}
		sys := st.system(p.modules)
		v := variants[p.si]
		cell := Cell{
			Index:           idx,
			Coord:           p.coord,
			Cycle:           cy.Label,
			Scheme:          n.Schemes[p.si],
			AmbientC:        p.amb.AmbientC,
			CoolantOffsetC:  p.amb.CoolantOffsetC,
			Paths:           p.fl.Paths,
			Maldistribution: p.fl.Maldistribution,
			Fault:           ft.Name,
			Modules:         p.modules,
			Seed:            seedFor(n.Seed, p.coord),
			DurationS:       base.Duration(),
		}
		for pi, w := range weights {
			tr, err := st.pathTrace(baseKey, base, w)
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %s: %w", p.coord, err)
			}
			cfg := sim.SchemeConfig{HorizonTicks: n.HorizonTicks, TickSeconds: n.TickS, ExtraMarginJ: v.marginJ}
			if v.horizon != 0 {
				cfg.HorizonTicks = v.horizon
			}
			if v.predictor != "" {
				// The oracle replays this job's own trace on its own plant.
				truth := sim.TempSequence{Sys: sys, Trace: tr, TickSeconds: n.TickS}
				if cfg.Predictor, err = predict.New(v.predictor, truth); err != nil {
					return nil, fmt.Errorf("scenario: cell %s: %w", p.coord, err)
				}
			}
			ctrl, err := v.sch.New(sys, cfg)
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %s: %w", p.coord, err)
			}
			opts := sim.Options{
				TickSeconds:  n.TickS,
				SensorNoiseC: *n.SensorNoiseC,
				Seed:         seedFor(n.Seed, p.coord+"|path="+strconv.Itoa(pi)),
				FaultPlan:    plan,
			}
			ex.Jobs = append(ex.Jobs, sim.Job{Sys: sys, Trace: tr, Ctrl: ctrl, Opts: opts})
			ex.CellOf = append(ex.CellOf, idx)
		}
		ex.Cells = append(ex.Cells, cell)
	}
	return ex, nil
}
