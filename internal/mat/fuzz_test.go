package mat

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCholeskySolve factors a random SPD matrix A = BᵀB + (n+shift)·I and
// checks both Cholesky solves against Gaussian elimination: the in-place
// forward substitution must solve L·y = b, and SolveCholesky must solve
// A·x = b. The seed corpus lives in testdata/fuzz/FuzzCholeskySolve; run
// the fuzzer with `make fuzz-smoke`.
func FuzzCholeskySolve(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8, shift float64) {
		if math.IsNaN(shift) || shift < 0 || shift > 1e6 {
			t.Skip("diagonal shift outside [0, 1e6]")
		}
		n := 1 + int(size%24)
		r := rand.New(rand.NewSource(seed))
		a := randomSPD(r, n)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+shift)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d shift=%g: SPD matrix did not factor: %v", n, shift, err)
		}

		y := append([]float64(nil), b...)
		ForwardSubstitute(l, y)
		wantY, err := SolveLinear(l, b)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "forward substitution", y, wantY)

		wantX, err := SolveLinear(a, b)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "SolveCholesky", SolveCholesky(l, b), wantX)
	})
}

// assertClose fails unless got matches want to 1e-9 relative to want's
// largest entry (A's condition number is at most about 5 here, so both
// solvers agree far tighter than that).
func assertClose(t *testing.T, what string, got, want []float64) {
	t.Helper()
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*scale || math.IsNaN(got[i]) {
			t.Fatalf("%s: x[%d] = %g want %g (|Δ| = %g, scale %g)", what, i, got[i], want[i], d, scale)
		}
	}
}
