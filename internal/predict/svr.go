package predict

import (
	"fmt"
	"math"
)

// SVR is the support-vector-regression predictor compared in Section IV:
// a linear ε-insensitive SVR trained by dual coordinate descent (the
// soft-threshold update of LIBLINEAR-style solvers, a special case of
// SMO for the linear kernel) on the pooled AR samples. The bias is
// absorbed by augmenting the features with a constant. SVR is the
// slowest of the three methods and no more accurate on the smooth
// radiator signals — matching the paper's ranking.
type SVR struct {
	order      int
	window     int
	c          float64 // box constraint
	epsilon    float64 // insensitive-tube half width (normalised units)
	iterations int     // coordinate-descent sweeps per fit
	maxSamples int     // training subsample cap

	hist  *History
	w     []float64 // weight vector over order lags + bias slot
	mean  float64
	scale float64
	fresh bool
}

// SVROptions tunes the predictor.
type SVROptions struct {
	Order      int
	Window     int
	C          float64 // box constraint, > 0
	Epsilon    float64 // tube half width in normalised units, ≥ 0
	Iterations int     // coordinate sweeps per fit
	MaxSamples int     // most-recent sample cap for training, ≥ 10
}

// DefaultSVROptions matches the experimental configuration.
func DefaultSVROptions() SVROptions {
	return SVROptions{Order: 4, Window: 60, C: 10, Epsilon: 1e-3, Iterations: 40, MaxSamples: 400}
}

// NewSVR constructs the predictor.
func NewSVR(opts SVROptions) (*SVR, error) {
	if opts.Order < 1 {
		return nil, fmt.Errorf("predict: SVR order %d < 1", opts.Order)
	}
	if opts.Window <= opts.Order+1 {
		return nil, fmt.Errorf("predict: SVR window %d too small for order %d", opts.Window, opts.Order)
	}
	if opts.C <= 0 {
		return nil, fmt.Errorf("predict: SVR C %g <= 0", opts.C)
	}
	if opts.Epsilon < 0 {
		return nil, fmt.Errorf("predict: SVR epsilon %g < 0", opts.Epsilon)
	}
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("predict: SVR iterations %d < 1", opts.Iterations)
	}
	if opts.MaxSamples < 10 {
		return nil, fmt.Errorf("predict: SVR sample cap %d < 10", opts.MaxSamples)
	}
	h, err := NewHistory(opts.Window)
	if err != nil {
		return nil, err
	}
	return &SVR{
		order:      opts.Order,
		window:     opts.Window,
		c:          opts.C,
		epsilon:    opts.Epsilon,
		iterations: opts.Iterations,
		maxSamples: opts.MaxSamples,
		hist:       h,
		mean:       60,
		scale:      40,
	}, nil
}

// Name implements Predictor.
func (s *SVR) Name() string { return "SVR" }

// Observe implements Predictor.
func (s *SVR) Observe(temps []float64) error {
	if err := s.hist.Push(temps); err != nil {
		return err
	}
	s.fresh = false
	return nil
}

// Ready implements Predictor.
func (s *SVR) Ready() bool { return s.hist.Len() >= s.order+2 }

// fit trains the linear ε-SVR by dual coordinate descent. For sample i
// with dual variable βᵢ ∈ [−C, C] and linear kernel Kᵢᵢ = ‖xᵢ‖², the
// subproblem minimum is the soft-thresholded residual
//
//	βᵢ ← clip( sign(rᵢ)·max(0, |rᵢ|−ε)/Kᵢᵢ, ±C ),  rᵢ = yᵢ − w·xᵢ + βᵢKᵢᵢ
//
// with the weight vector maintained incrementally as w += Δβᵢ·xᵢ.
func (s *SVR) fit() error {
	samples := arDataset(s.hist, s.order)
	if len(samples) == 0 {
		return ErrNotReady
	}
	if len(samples) > s.maxSamples {
		samples = samples[len(samples)-s.maxSamples:]
	}
	// Normalisation from the training targets.
	lo, hi := samples[0].y, samples[0].y
	for _, sm := range samples {
		if sm.y < lo {
			lo = sm.y
		}
		if sm.y > hi {
			hi = sm.y
		}
	}
	s.mean = (lo + hi) / 2
	if span := (hi - lo) / 2; span > 1 {
		s.scale = span
	} else {
		s.scale = 1
	}

	dim := s.order + 1 // + bias feature
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	kii := make([]float64, len(samples))
	for i, sm := range samples {
		x := make([]float64, dim)
		for k, v := range sm.x {
			x[k] = (v - s.mean) / s.scale
		}
		x[dim-1] = 1
		xs[i] = x
		ys[i] = (sm.y - s.mean) / s.scale
		for _, v := range x {
			kii[i] += v * v
		}
	}
	w := make([]float64, dim)
	beta := make([]float64, len(samples))
	for sweep := 0; sweep < s.iterations; sweep++ {
		maxDelta := 0.0
		for i := range xs {
			wx := 0.0
			for k, v := range xs[i] {
				wx += w[k] * v
			}
			r := ys[i] - wx + beta[i]*kii[i]
			var nb float64
			if abs := math.Abs(r); abs > s.epsilon {
				nb = math.Copysign(abs-s.epsilon, r) / kii[i]
				if nb > s.c {
					nb = s.c
				} else if nb < -s.c {
					nb = -s.c
				}
			}
			if d := nb - beta[i]; d != 0 {
				for k, v := range xs[i] {
					w[k] += d * v
				}
				beta[i] = nb
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
			}
		}
		if maxDelta < 1e-9 {
			break
		}
	}
	s.w = w
	s.fresh = true
	return nil
}

// Predict implements Predictor.
func (s *SVR) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !s.Ready() {
		return nil, ErrNotReady
	}
	if !s.fresh {
		if err := s.fit(); err != nil {
			return nil, err
		}
	}
	w := s.w
	step := func(raw []float64) float64 {
		y := w[len(w)-1] // bias feature
		for k, v := range raw {
			y += w[k] * (v - s.mean) / s.scale
		}
		return y*s.scale + s.mean
	}
	return rollForward(s.hist, s.order, horizon, step), nil
}
