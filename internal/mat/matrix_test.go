package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func TestNewDimsAndAccess(t *testing.T) {
	m := New(3, 4)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	m.Set(2, 3, 7.5)
	if got := m.At(2, 3); got != 7.5 {
		t.Fatalf("At(2,3) = %g want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value At(0,0) = %g want 0", got)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 3) did not panic")
		}
	}()
	New(0, 3)
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 1) != 4 || m.At(2, 0) != 5 {
		t.Fatalf("unexpected contents: %v", m)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 5, 5)
	got := a.Mul(Identity(5))
	if !got.Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	got = Identity(5).Mul(a)
	if !got.Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	want := NewFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want, 0) {
		t.Fatalf("Mul = %v want %v", got, want)
	}
}

// TestMulMatchesRolledLoop pins the unrolled Mul to the plain ikj loop
// bit for bit, at every inner length remainder mod 4 and with the zero
// entries the loop skips.
func TestMulMatchesRolledLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for cols := 1; cols <= 9; cols++ {
		a, b := randomMatrix(rng, 5, 7), randomMatrix(rng, 7, cols)
		a.Set(1, 2, 0)
		got := a.Mul(b)
		for i := 0; i < a.rows; i++ {
			for j := 0; j < cols; j++ {
				want := 0.0
				for k := 0; k < a.cols; k++ {
					if a.At(i, k) != 0 {
						want += a.At(i, k) * b.At(k, j)
					}
				}
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
					t.Fatalf("cols=%d: Mul[%d][%d] = %v want %v", cols, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 4, 7)
	if !a.T().T().Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 6, 4)
	v := make([]float64, 4)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	got := a.MulVec(v)
	col := New(4, 1)
	for i, x := range v {
		col.Set(i, 0, x)
	}
	want := a.Mul(col)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.Add(b); !got.Equal(NewFromRows([][]float64{{5, 5}, {5, 5}}), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); !got.Equal(NewFromRows([][]float64{{-3, -1}, {1, 3}}), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); !got.Equal(NewFromRows([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Fatalf("Scale = %v", got)
	}
	// Originals untouched.
	if a.At(0, 0) != 1 || b.At(0, 0) != 4 {
		t.Fatal("operands were mutated")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}})
	b := NewFromRows([][]float64{{10, 20}})
	a.AddInPlace(b)
	if a.At(0, 1) != 22 {
		t.Fatalf("AddInPlace got %v", a)
	}
	a.AddScaledInPlace(0.5, b)
	if a.At(0, 0) != 16 {
		t.Fatalf("AddScaledInPlace got %v", a)
	}
	a.ScaleInPlace(2)
	if a.At(0, 0) != 32 {
		t.Fatalf("ScaleInPlace got %v", a)
	}
}

func TestHadamardAndApply(t *testing.T) {
	a := NewFromRows([][]float64{{1, -2}, {3, -4}})
	h := a.Hadamard(a)
	if !h.Equal(NewFromRows([][]float64{{1, 4}, {9, 16}}), 0) {
		t.Fatalf("Hadamard = %v", h)
	}
	ab := a.Apply(math.Abs)
	if !ab.Equal(NewFromRows([][]float64{{1, 2}, {3, 4}}), 0) {
		t.Fatalf("Apply = %v", ab)
	}
}

func TestRowColCopySemantics(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	r := a.Row(0)
	r[0] = 99
	if a.At(0, 0) != 1 {
		t.Fatal("Row returned aliasing slice")
	}
	c := a.Col(1)
	c[0] = 99
	if a.At(0, 1) != 2 {
		t.Fatal("Col returned aliasing slice")
	}
	raw := a.RawRow(1)
	raw[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("RawRow did not alias")
	}
}

func TestTraceNorms(t *testing.T) {
	a := NewFromRows([][]float64{{3, 0}, {0, 4}})
	if got := a.Trace(); got != 7 {
		t.Fatalf("Trace = %g", got)
	}
	if got := a.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %g want 5", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %g", got)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ for random shapes.
func TestMulTransposeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, p := 1+int(r.Int31n(6)), 1+int(r.Int31n(6)), 1+int(r.Int31n(6))
		a := randomMatrix(r, m, n)
		b := randomMatrix(r, n, p)
		left := a.Mul(b).T()
		right := b.T().Mul(a.T())
		return left.Equal(right, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, p := 1+int(r.Int31n(5)), 1+int(r.Int31n(5)), 1+int(r.Int31n(5))
		a := randomMatrix(r, m, n)
		b := randomMatrix(r, n, p)
		c := randomMatrix(r, n, p)
		left := a.Mul(b.Add(c))
		right := a.Mul(b).Add(a.Mul(c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
