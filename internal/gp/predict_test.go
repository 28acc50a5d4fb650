package gp

import (
	"fmt"
	"math"
	"testing"

	"github.com/neuralcompile/glimpse/internal/mat"
	"github.com/neuralcompile/glimpse/internal/rng"
)

// referencePredict is the two-solve posterior Predict used before the
// forward-only form: k* built one Eval call per training row, then a full
// forward and backward Cholesky solve, σ² = k(q,q) − k*ᵀ·(K⁻¹k*).
func referencePredict(r *Regressor, q []float64) (mean, variance float64) {
	ks := make([]float64, len(r.x))
	for i, xi := range r.x {
		ks[i] = r.Kernel.Eval(q, xi)
	}
	mean = r.yMean + mat.Dot(ks, r.alpha)
	v := mat.SolveCholesky(r.chol, ks)
	variance = r.Kernel.Eval(q, q) - mat.Dot(ks, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// randomFit draws n training points in [0,1]^5 and fits a GP on them.
// With nearDup set, every other row duplicates its predecessor up to a
// 1e-13 perturbation (row 1 duplicates row 0 exactly) and the noise is too
// small to show on the diagonal. At unit kernel variance the exact pair
// leaves a pivot of exactly 0, so the first Cholesky fails and Fit takes
// the jitter path.
func randomFit(t *testing.T, g *rng.RNG, k Kernel, n int, nearDup bool) (*Regressor, [][]float64) {
	t.Helper()
	const dim = 5
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = g.Float64()
			if nearDup && i%2 == 1 {
				x[i][j] = x[i-1][j] + 1e-13*g.Float64()
			}
			if nearDup && i == 1 {
				x[i][j] = x[0][j]
			}
		}
		y[i] = g.NormFloat64()
	}
	noise := 1e-3
	if nearDup {
		noise = 1e-18
		if _, err := mat.Cholesky(gram(k, x, noise)); err == nil {
			t.Fatalf("n=%d: near-duplicate rows factored without jitter", n)
		}
	}
	r := NewRegressor(k, noise)
	if err := r.Fit(x, y); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return r, x
}

// TestPredictMatchesTwoSolveReference pins the forward-only variance
// identity k(q,q) − ‖L⁻¹k*‖² = k(q,q) − k*ᵀ(LLᵀ)⁻¹k* on random Matérn and
// RBF fits, at fresh queries and at the training points themselves.
func TestPredictMatchesTwoSolveReference(t *testing.T) {
	g := rng.New(41)
	kernels := map[string]func(v, l float64) Kernel{
		"matern52": func(v, l float64) Kernel { return Matern52{Variance: v, LengthScale: l} },
		"rbf":      func(v, l float64) Kernel { return RBF{Variance: v, LengthScale: l} },
	}
	for _, name := range []string{"matern52", "rbf"} {
		for _, n := range []int{1, 2, 17, 144} {
			for _, nearDup := range []bool{false, true} {
				if nearDup && n < 2 {
					continue
				}
				t.Run(fmt.Sprintf("%s/n=%d/neardup=%v", name, n, nearDup), func(t *testing.T) {
					variance := []float64{0.1, 1, 10}[g.Intn(3)]
					if nearDup {
						variance = 1
					}
					k := kernels[name](variance, []float64{0.3, 1, 3}[g.Intn(3)])
					r, x := randomFit(t, g, k, n, nearDup)
					queries := append([][]float64(nil), x...)
					for i := 0; i < 32; i++ {
						q := make([]float64, len(x[0]))
						for j := range q {
							q[j] = g.Float64()
						}
						queries = append(queries, q)
					}
					for _, q := range queries {
						gotM, gotV := r.Predict(q)
						wantM, wantV := referencePredict(r, q)
						// Relative to the posterior's natural scales: the
						// variance cancels down from k(q,q), the mean sums
						// terms of the targets' size.
						vScale := math.Max(math.Abs(wantV), k.Eval(q, q))
						mScale := math.Max(math.Abs(wantM), 1)
						if math.Abs(gotV-wantV) > 1e-9*vScale {
							t.Fatalf("variance %g want %g (scale %g)", gotV, wantV, vScale)
						}
						if math.Abs(gotM-wantM) > 1e-9*mScale {
							t.Fatalf("mean %g want %g (scale %g)", gotM, wantM, mScale)
						}
					}
				})
			}
		}
	}
}

// TestEvalRowsMatchesEval pins EvalRows to per-row Eval bit for bit, for
// both kernels: the Gram matrix and Predict depend on it.
func TestEvalRowsMatchesEval(t *testing.T) {
	g := rng.New(42)
	x := make([][]float64, 33)
	for i := range x {
		x[i] = []float64{g.NormFloat64(), g.NormFloat64(), g.NormFloat64()}
	}
	q := []float64{0.1, -0.2, 0.3}
	for _, k := range []Kernel{Matern52{Variance: 2, LengthScale: 0.7}, RBF{Variance: 0.5, LengthScale: 1.3}} {
		dst := make([]float64, len(x))
		k.EvalRows(dst, q, x)
		for i, xi := range x {
			if want := k.Eval(q, xi); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%T row %d: EvalRows %v != Eval %v", k, i, dst[i], want)
			}
		}
	}
}

// capRows is the tuning loop's GP training-set cap (core's capGPSet).
const capRows = 144

// fittedAtCap fits a Matérn GP on capRows random points in [0,1]^8 and
// returns it with a query point.
func fittedAtCap(tb testing.TB) (*Regressor, []float64) {
	g := rng.New(43)
	x := make([][]float64, capRows)
	y := make([]float64, capRows)
	for i := range x {
		x[i] = make([]float64, 8)
		for j := range x[i] {
			x[i][j] = g.Float64()
		}
		y[i] = g.NormFloat64()
	}
	r := NewRegressor(Matern52{Variance: 1, LengthScale: 1}, 1e-3)
	if err := r.Fit(x, y); err != nil {
		tb.Fatal(err)
	}
	q := make([]float64, 8)
	for j := range q {
		q[j] = g.Float64()
	}
	return r, q
}

// BenchmarkGPPredict times one posterior Predict at the tuning loop's
// training-set cap, the call simulated annealing makes per chain step.
func BenchmarkGPPredict(b *testing.B) {
	r, q := fittedAtCap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Predict(q)
	}
}

// TestPredictDoesNotAllocate is the CI-enforced form of BenchmarkGPPredict's
// contract: Predict at the training-set cap makes no heap allocation.
func TestPredictDoesNotAllocate(t *testing.T) {
	r, q := fittedAtCap(t)
	if allocs := testing.AllocsPerRun(1000, func() { r.Predict(q) }); allocs != 0 {
		t.Fatalf("Predict allocates %v per call at n=%d", allocs, capRows)
	}
}
