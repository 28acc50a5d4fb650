package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/gp"
	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/nn"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// Layer probes time the numerical kernels the tuning loop and toolkit
// training spend their CPU in, at the sizes those callers use, on inputs
// generated from the workload seed. Each timing is the median of several
// repetitions. Allocation counts come from the runtime's malloc counter;
// the runtime itself allocates now and then (a new goroutine, say), so a
// count is the least over several repetitions, which repeats exactly.

const (
	gpRows      = 144 // the tuning loop's GP training-set cap
	gpQueries   = 256 // Predict calls per timed round
	mulPerRound = 100 // Mul calls per timed round
	nnRows      = 512 // training rows of the nn.Fit probe
	nnBatch     = 64  // minibatch of acquisition meta-training
	nnHidden    = 32  // acquisition net hidden width (acq.MetaConfig default)
	nnEpochs    = 10
	probeReps   = 7
)

func runProbes(r *run) error {
	g := rng.New(r.seed).Split("probes")
	if err := probeGP(r, g.Split("gp")); err != nil {
		return err
	}
	probeNN(r, g.Split("nn"))
	return nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocs is the least number of heap allocations made over probeReps
// calls of the function prepare returns; prepare itself is not counted.
func allocs(prepare func() func()) float64 {
	least := uint64(0)
	for i := 0; i < probeReps; i++ {
		f := prepare()
		before := mallocs()
		f()
		if n := mallocs() - before; i == 0 || n < least {
			least = n
		}
	}
	return float64(least)
}

// timeReps returns the median wall time of f over probeReps calls.
func timeReps(f func()) time.Duration {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, float64(time.Since(t0)))
	}
	return time.Duration(median(xs))
}

// matern is the tuning loop's surrogate kernel.
func matern(v, l float64) gp.Kernel { return gp.Matern52{Variance: v, LengthScale: l} }

func probeGP(r *run, g *rng.RNG) error {
	task, err := workload.TaskByIndex(workload.ResNet18, 2) // a conv2d task
	if err != nil {
		return err
	}
	sp, err := space.ForTask(task)
	if err != nil {
		return err
	}
	xs := make([][]float64, gpRows)
	ys := make([]float64, gpRows)
	for i := range xs {
		xs[i] = sp.FeaturesAt(sp.RandomIndex(g))
		ys[i] = g.Float64()
	}
	qs := make([][]float64, gpQueries)
	for i := range qs {
		qs[i] = sp.FeaturesAt(sp.RandomIndex(g))
	}

	var fitErr error
	r.set("gp.fit_ms", ms(timeReps(func() {
		_, fitErr = gp.FitWithGridSearch(xs, ys, 1e-3, matern)
	})))
	if fitErr != nil {
		return fmt.Errorf("gp probe fit: %w", fitErr)
	}
	reg := gp.NewRegressor(matern(1, 1), 1e-3)
	if err := reg.Fit(xs, ys); err != nil {
		return fmt.Errorf("gp probe fit: %w", err)
	}
	predictAll := func() {
		for _, q := range qs {
			reg.Predict(q)
		}
	}
	predictAll() // warm caches before timing
	r.set("gp.predict_us", float64(timeReps(predictAll).Microseconds())/gpQueries)
	r.set("gp.predict_allocs", allocs(func() func() { return predictAll })/gpQueries)

	// The GP's Cholesky input: the Matérn gram of the probe rows.
	k := matern(1, 1)
	gram := mat.New(gpRows, gpRows)
	for i := range xs {
		for j := range xs {
			v := k.Eval(xs[i], xs[j])
			if i == j {
				v += 1e-3
			}
			gram.Set(i, j, v)
		}
	}
	var cholErr error
	r.set("mat.cholesky_us", float64(timeReps(func() {
		_, cholErr = mat.Cholesky(gram)
	}).Microseconds()))
	if cholErr != nil {
		return fmt.Errorf("mat probe cholesky: %w", cholErr)
	}
	return nil
}

// probeNN times the acquisition network's training step: one Mul at a
// dense layer's forward shape, and one nn.Fit of the network.
func probeNN(r *run, g *rng.RNG) {
	in := acq.FeatureDim(blueprint.DefaultDim())
	a := randMatrix(nnBatch, in, g)
	b := randMatrix(in, nnHidden, g)
	r.set("mat.mul_us", float64(timeReps(func() {
		for i := 0; i < mulPerRound; i++ {
			a.Mul(b)
		}
	}).Nanoseconds())/1e3/mulPerRound)

	x := randMatrix(nnRows, in, g)
	y := randMatrix(nnRows, 1, g)
	cfg := func() nn.TrainConfig {
		return nn.TrainConfig{Epochs: nnEpochs, BatchSize: nnBatch, Optimizer: nn.NewAdam(2e-3), ClipNorm: 10}
	}
	newNet := func() *nn.Network { return nn.NewMLP([]int{in, nnHidden, nnHidden, 1}, nn.Tanh, g.Split("net")) }
	r.set("nn.fit_ms", ms(timeReps(func() {
		nn.Fit(newNet(), x, y, cfg(), g.Split("fit"))
	})))
	r.set("nn.fit_allocs", allocs(func() func() {
		net, c, fg := newNet(), cfg(), g.Split("fit")
		return func() { nn.Fit(net, x, y, c, fg) }
	}))
}

func randMatrix(rows, cols int, g *rng.RNG) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, g.NormFloat64())
		}
	}
	return m
}
