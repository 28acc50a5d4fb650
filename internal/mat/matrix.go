// Package mat provides dense linear algebra for the Glimpse compiler:
// matrices, vectors, factorizations (Cholesky, symmetric eigendecomposition)
// and summary statistics. It is deliberately small — just what the Blueprint
// PCA embedding, Gaussian-process surrogates, and neural-network substrates
// need — and uses only the standard library.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// ErrShape is returned (or wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible shapes")

// New returns an r×c zero matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: non-positive dimensions %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (row-major, length r*c) in a matrix without copying.
func NewFromData(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// NewFromRows builds a matrix by copying the given equal-length rows.
func NewFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: empty rows")
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("mat: ragged row %d: %d != %d", i, len(row), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the matrix dimensions (rows, cols).
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// RawRow returns row i as a slice aliasing the matrix storage.
func (m *Matrix) RawRow(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: SetRow length %d != %d", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	// ikj loop order keeps inner accesses sequential for both operands.
	// The inner loop is unrolled by four: each element still gets exactly
	// one a·b add per k, in k order, so results are bit-identical to the
	// rolled loop, but the rolled loop is small enough that its speed
	// swung by a third with where the linker happened to place it.
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols:]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k := 0; k < m.cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			j := 0
			for ; j+4 <= len(bk); j += 4 {
				o, v := oi[j:j+4:j+4], bk[j:j+4:j+4]
				o[0] += a * v[0]
				o[1] += a * v[1]
				o[2] += a * v[2]
				o[3] += a * v[3]
			}
			for ; j < len(bk); j++ {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns m·v for a vector of length Cols().
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: MulVec %dx%d by %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = Dot(m.data[i*m.cols:(i+1)*m.cols], v)
	}
	return out
}

// Add returns m + b elementwise.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.mustMatch(b, "Add")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m - b elementwise.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.mustMatch(b, "Sub")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s·m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// AddInPlace adds b into m.
func (m *Matrix) AddInPlace(b *Matrix) {
	m.mustMatch(b, "AddInPlace")
	for i, v := range b.data {
		m.data[i] += v
	}
}

// ScaleInPlace multiplies every element of m by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddScaledInPlace adds s·b into m (axpy).
func (m *Matrix) AddScaledInPlace(s float64, b *Matrix) {
	m.mustMatch(b, "AddScaledInPlace")
	for i, v := range b.data {
		m.data[i] += s * v
	}
}

// Hadamard returns the elementwise product m ⊙ b.
func (m *Matrix) Hadamard(b *Matrix) *Matrix {
	m.mustMatch(b, "Hadamard")
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] *= v
	}
	return out
}

// Apply returns a new matrix with f applied to every element.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	out := m.Clone()
	for i, v := range out.data {
		out.data[i] = f(v)
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// Trace returns the sum of diagonal elements of a square matrix.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic("mat: Trace of non-square matrix")
	}
	s := 0.0
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// Equal reports whether m and b agree elementwise within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		sb.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.6g", m.At(i, j))
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

func (m *Matrix) mustMatch(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("mat: %s %dx%d with %dx%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}
