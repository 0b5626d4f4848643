package predict

import (
	"fmt"
	"math"
	"math/rand"
)

// BPNN is the back-propagation neural-network predictor compared in
// Section IV: a single-hidden-layer feedforward network with tanh
// activation trained online by stochastic gradient descent with momentum
// on the pooled AR samples. It is more expensive than MLR and, on the
// smooth radiator temperatures, no more accurate — which is exactly the
// paper's finding.
type BPNN struct {
	order  int
	window int
	hidden int
	lr     float64
	moment float64
	epochs int
	seed   int64
	rng    *rand.Rand

	hist *History

	// Weights: input(order)→hidden and hidden→output, plus biases.
	w1, w1v [][]float64 // [hidden][order], and momentum buffer
	b1, b1v []float64
	w2, w2v []float64 // [hidden]
	b2, b2v float64

	// Normalisation learned from the window.
	mean, scale float64

	initialized bool
}

// BPNNOptions tunes the network.
type BPNNOptions struct {
	Order     int // AR order
	Window    int // sliding window, ticks
	Hidden    int // hidden units
	LearnRate float64
	Momentum  float64
	Epochs    int   // passes over the window per Observe
	Seed      int64 // weight-init and shuffle seed
}

// DefaultBPNNOptions matches the experimental configuration.
func DefaultBPNNOptions() BPNNOptions {
	return BPNNOptions{Order: 4, Window: 60, Hidden: 8, LearnRate: 0.05, Momentum: 0.9, Epochs: 4, Seed: 1}
}

// NewBPNN constructs the predictor.
func NewBPNN(opts BPNNOptions) (*BPNN, error) {
	if opts.Order < 1 {
		return nil, fmt.Errorf("predict: BPNN order %d < 1", opts.Order)
	}
	if opts.Window <= opts.Order+1 {
		return nil, fmt.Errorf("predict: BPNN window %d too small for order %d", opts.Window, opts.Order)
	}
	if opts.Hidden < 1 {
		return nil, fmt.Errorf("predict: BPNN hidden units %d < 1", opts.Hidden)
	}
	if opts.LearnRate <= 0 || opts.LearnRate >= 1 {
		return nil, fmt.Errorf("predict: BPNN learn rate %g outside (0,1)", opts.LearnRate)
	}
	if opts.Momentum < 0 || opts.Momentum >= 1 {
		return nil, fmt.Errorf("predict: BPNN momentum %g outside [0,1)", opts.Momentum)
	}
	if opts.Epochs < 1 {
		return nil, fmt.Errorf("predict: BPNN epochs %d < 1", opts.Epochs)
	}
	h, err := NewHistory(opts.Window)
	if err != nil {
		return nil, err
	}
	n := &BPNN{
		order:  opts.Order,
		window: opts.Window,
		hidden: opts.Hidden,
		lr:     opts.LearnRate,
		moment: opts.Momentum,
		epochs: opts.Epochs,
		seed:   opts.Seed,
		hist:   h,
	}
	n.Reset()
	return n, nil
}

// Reset implements Predictor: the seeded initial weights and priors.
func (n *BPNN) Reset() {
	n.hist.Reset()
	n.rng = rand.New(rand.NewSource(n.seed))
	n.mean, n.scale = 60, 40 // sensible priors for radiator °C; refined on fit
	n.b2, n.b2v = 0, 0
	n.initWeights()
}

func (n *BPNN) initWeights() {
	lim := 1 / math.Sqrt(float64(n.order))
	n.w1 = make([][]float64, n.hidden)
	n.w1v = make([][]float64, n.hidden)
	n.b1 = make([]float64, n.hidden)
	n.b1v = make([]float64, n.hidden)
	n.w2 = make([]float64, n.hidden)
	n.w2v = make([]float64, n.hidden)
	for j := 0; j < n.hidden; j++ {
		n.w1[j] = make([]float64, n.order)
		n.w1v[j] = make([]float64, n.order)
		for k := range n.w1[j] {
			n.w1[j][k] = n.rng.Float64()*2*lim - lim
		}
		n.w2[j] = n.rng.Float64()*2*lim - lim
	}
	n.initialized = true
}

// Name implements Predictor.
func (n *BPNN) Name() string { return "BPNN" }

// Observe implements Predictor: pushes the sample and runs a few SGD
// epochs over the window.
func (n *BPNN) Observe(temps []float64) error {
	if err := n.hist.Push(temps); err != nil {
		return err
	}
	if !n.Ready() {
		return nil
	}
	n.train()
	return nil
}

// Ready implements Predictor.
func (n *BPNN) Ready() bool { return n.hist.Len() >= n.order+2 }

// normalize maps a temperature into roughly [-1, 1].
func (n *BPNN) normalize(t float64) float64 { return (t - n.mean) / n.scale }

// denormalize inverts normalize.
func (n *BPNN) denormalize(z float64) float64 { return z*n.scale + n.mean }

// forward computes the network output for a normalised feature vector,
// optionally returning the hidden activations for backprop.
func (n *BPNN) forward(x []float64, hidden []float64) float64 {
	out := n.b2
	for j := 0; j < n.hidden; j++ {
		a := n.b1[j]
		for k, xv := range x {
			a += n.w1[j][k] * xv
		}
		h := math.Tanh(a)
		if hidden != nil {
			hidden[j] = h
		}
		out += n.w2[j] * h
	}
	return out
}

// train runs the configured number of SGD epochs on the pooled window.
func (n *BPNN) train() {
	samples := arDataset(n.hist, n.order)
	if len(samples) == 0 {
		return
	}
	// Refresh normalisation from the window.
	lo, hi := samples[0].y, samples[0].y
	for _, s := range samples {
		if s.y < lo {
			lo = s.y
		}
		if s.y > hi {
			hi = s.y
		}
	}
	n.mean = (lo + hi) / 2
	if span := (hi - lo) / 2; span > 1 {
		n.scale = span
	} else {
		n.scale = 1
	}

	x := make([]float64, n.order)
	hid := make([]float64, n.hidden)
	perm := n.rng.Perm(len(samples))
	for e := 0; e < n.epochs; e++ {
		for _, idx := range perm {
			s := samples[idx]
			for k, v := range s.x {
				x[k] = n.normalize(v)
			}
			y := n.normalize(s.y)
			out := n.forward(x, hid)
			errOut := out - y
			// Output layer.
			for j := 0; j < n.hidden; j++ {
				g := errOut * hid[j]
				n.w2v[j] = n.moment*n.w2v[j] - n.lr*g
				n.w2[j] += n.w2v[j]
			}
			n.b2v = n.moment*n.b2v - n.lr*errOut
			n.b2 += n.b2v
			// Hidden layer.
			for j := 0; j < n.hidden; j++ {
				dj := errOut * n.w2[j] * (1 - hid[j]*hid[j])
				for k := range x {
					g := dj * x[k]
					n.w1v[j][k] = n.moment*n.w1v[j][k] - n.lr*g
					n.w1[j][k] += n.w1v[j][k]
				}
				n.b1v[j] = n.moment*n.b1v[j] - n.lr*dj
				n.b1[j] += n.b1v[j]
			}
		}
	}
}

// Work implements Predictor: once ready, each Observe trains Epochs
// passes over the pooled window, a forward and a backward pass of
// Hidden·(Order+2) per sample; the forecast is one forward pass per
// module and step.
func (n *BPNN) Work(horizon int) (observe, predict int64) {
	pass, modules := n.hidden*(n.order+2), n.hist.Modules()
	observe = int64(modules)
	if n.Ready() {
		observe += int64(n.epochs) * int64(arCount(n.hist, n.order)) * int64(2*pass)
	}
	return observe, int64(horizon * modules * pass)
}

// Predict implements Predictor.
func (n *BPNN) Predict(horizon int) ([][]float64, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("predict: horizon %d < 1", horizon)
	}
	if !n.Ready() {
		return nil, ErrNotReady
	}
	x := make([]float64, n.order)
	step := func(raw []float64) float64 {
		for k, v := range raw {
			x[k] = n.normalize(v)
		}
		return n.denormalize(n.forward(x, nil))
	}
	return rollForward(n.hist, n.order, horizon, step), nil
}
