package gp

import (
	"math"
	"sync"

	"github.com/neuralcompile/glimpse/internal/mat"
)

// Regressor is an exact Gaussian-process regressor.
type Regressor struct {
	Kernel Kernel
	Noise  float64 // observation noise variance added to the diagonal

	x     [][]float64
	yMean float64
	alpha []float64   // K⁻¹(y - mean)
	chol  *mat.Matrix // Cholesky factor of K + noise·I
}

// NewRegressor returns a GP with the given kernel and noise variance.
func NewRegressor(k Kernel, noise float64) *Regressor {
	if noise <= 0 {
		noise = 1e-8
	}
	return &Regressor{Kernel: k, Noise: noise}
}

// Fit conditions the GP on the training data. Targets are internally
// centred on their mean so the GP prior mean matches the data scale.
func (r *Regressor) Fit(x [][]float64, y []float64) error {
	if err := checkDims(x, y); err != nil {
		return err
	}
	r.x = x
	r.yMean = mat.Mean(y)
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - r.yMean
	}
	k := gram(r.Kernel, x, r.Noise)
	chol, err := mat.Cholesky(k)
	if err != nil {
		// Add jitter progressively until the Gram matrix factors.
		jitter := r.Noise
		for attempt := 0; attempt < 8; attempt++ {
			jitter *= 10
			k = gram(r.Kernel, x, jitter)
			if chol, err = mat.Cholesky(k); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	r.chol = chol
	r.alpha = mat.SolveCholesky(chol, centered)
	return nil
}

// Fitted reports whether Fit has been called successfully.
func (r *Regressor) Fitted() bool { return r.chol != nil }

// Predict returns the posterior mean and variance at query point q. The
// variance uses the forward half of the Cholesky solve only:
//
//	σ²(q) = k(q,q) − k*ᵀ(LLᵀ)⁻¹k* = k(q,q) − ‖L⁻¹k*‖²
//
// Predict allocates nothing: k* lives in pooled scratch that the forward
// substitution overwrites in place. It is safe for concurrent use.
func (r *Regressor) Predict(q []float64) (mean, variance float64) {
	prior := r.Kernel.Eval(q, q)
	if !r.Fitted() {
		return r.yMean, prior
	}
	buf := getScratch(len(r.x))
	ks := *buf
	r.Kernel.EvalRows(ks, q, r.x)
	mean = r.yMean + mat.Dot(ks, r.alpha)
	mat.ForwardSubstitute(r.chol, ks) // ks ← L⁻¹k*
	variance = prior - mat.Dot(ks, ks)
	scratch.Put(buf)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// scratch pools Predict's k* buffers. A pool rather than a per-Regressor
// buffer keeps Predict lock-free under the annealer's concurrent chains.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled buffer resliced to length n.
func getScratch(n int) *[]float64 {
	buf := scratch.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// LogMarginalLikelihood returns log p(y | X, θ) for the fitted GP.
func (r *Regressor) LogMarginalLikelihood(y []float64) float64 {
	if !r.Fitted() {
		return math.Inf(-1)
	}
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - r.yMean
	}
	n := float64(len(y))
	fit := -0.5 * mat.Dot(centered, r.alpha)
	complexity := -0.5 * mat.LogDetCholesky(r.chol)
	norm := -0.5 * n * math.Log(2*math.Pi)
	return fit + complexity + norm
}

// FitWithGridSearch fits the GP trying each (variance, lengthscale) pair on
// a log grid and keeping the hyperparameters with the highest marginal
// likelihood. The kernel constructor adapts grid points to a concrete kernel.
func FitWithGridSearch(x [][]float64, y []float64, noise float64,
	makeKernel func(variance, lengthScale float64) Kernel) (*Regressor, error) {

	variances := []float64{0.1, 1, 10}
	scales := []float64{0.1, 0.3, 1, 3, 10}
	var best *Regressor
	bestLML := math.Inf(-1)
	for _, v := range variances {
		for _, s := range scales {
			r := NewRegressor(makeKernel(v, s), noise)
			if err := r.Fit(x, y); err != nil {
				continue
			}
			if lml := r.LogMarginalLikelihood(y); lml > bestLML {
				bestLML = lml
				best = r
			}
		}
	}
	if best == nil {
		// Every grid point failed to factor: fall back to a heavily
		// regularized default so callers still get a usable model.
		r := NewRegressor(makeKernel(1, 1), 1e-2)
		if err := r.Fit(x, y); err != nil {
			return nil, err
		}
		return r, nil
	}
	return best, nil
}
