package mat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite A. Only the lower triangle of A is read.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPositiveDefinite, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A,
// via forward then backward substitution.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveCholesky rhs length %d != %d", len(b), n))
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	copy(y, b)
	ForwardSubstitute(l, y)
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// ForwardSubstitute solves L·y = b in place for a lower-triangular L: on
// return b holds y. Only the lower triangle of L is read, one contiguous
// row slice at a time, and nothing is allocated.
func ForwardSubstitute(l *Matrix, b []float64) {
	n := l.rows
	if l.cols != n || len(b) != n {
		panic(fmt.Sprintf("mat: ForwardSubstitute of %dx%d with rhs length %d", l.rows, l.cols, len(b)))
	}
	for i := 0; i < n; i++ {
		row := l.data[i*n : i*n+i+1]
		s := b[i]
		for k, lik := range row[:i] {
			s -= lik * b[k]
		}
		b[i] = s / row[i]
	}
}

// LogDetCholesky returns log|A| given the Cholesky factor L of A.
func LogDetCholesky(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// Eigen holds the eigendecomposition of a symmetric matrix: A = V·diag(λ)·Vᵀ.
// Values are sorted in descending order; Vectors' column k is the
// eigenvector for Values[k].
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// SymEigen computes all eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi rotation method. The input is not modified.
func SymEigen(a *Matrix) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: SymEigen of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })
	sorted := make([]float64, n)
	vecs := New(n, n)
	for k, idx := range order {
		sorted[k] = vals[idx]
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, idx))
		}
	}
	return &Eigen{Values: sorted, Vectors: vecs}, nil
}

// rotate applies the Jacobi rotation J(p,q,θ) to w (two-sided) and
// accumulates it into the eigenvector matrix v (one-sided).
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

// SolveLinear solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: SolveLinear of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs length %d != %d", ErrShape, len(b), n)
	}
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot, pv := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(m.At(r, col)); abs > pv {
				pivot, pv = r, abs
			}
		}
		if pv < 1e-14 {
			return nil, errors.New("mat: singular matrix in SolveLinear")
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				tmp := m.At(col, j)
				m.Set(col, j, m.At(pivot, j))
				m.Set(pivot, j, tmp)
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Set(r, j, m.At(r, j)-f*m.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}
