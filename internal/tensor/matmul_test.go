package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"distgnn/internal/parallel"
)

// naiveMatMul is the reference O(mnk) triple loop used to validate the
// blocked/parallel kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for p := 0; p < a.Cols; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(i, j, float32(s))
		}
	}
	return c
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	RandomNormal(m, rng, 1)
	return m
}

func TestMatMulSmallExact(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := New(2, 2)
	MatMul(c, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul: got %v want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 17, 17)
	eye := New(17, 17)
	for i := 0; i < 17; i++ {
		eye.Set(i, i, 1)
	}
	c := New(17, 17)
	MatMul(c, a, eye)
	if d := c.MaxAbsDiff(a); d > 1e-6 {
		t.Fatalf("A×I != A, max diff %v", d)
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {5, 7, 3}, {64, 33, 17}, {130, 300, 40}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		c := New(m, n)
		MatMul(c, a, b)
		want := naiveMatMul(a, b)
		if d := c.MaxAbsDiff(want); d > 1e-3 {
			t.Fatalf("dims %v: max diff %v", dims, d)
		}
	}
}

func TestMatMulAccAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 8, 8)
	b := randomMatrix(rng, 8, 8)
	c := New(8, 8)
	MatMul(c, a, b)
	twice := c.Clone()
	MatMulAcc(twice, a, b)
	c.Scale(2)
	if d := twice.MaxAbsDiff(c); d > 1e-4 {
		t.Fatalf("MatMulAcc: max diff %v", d)
	}
}

func TestMatMulTransAMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 40, 13) // k×m
	b := randomMatrix(rng, 40, 21) // k×n
	c := New(13, 21)
	MatMulTransA(c, a, b)
	want := New(13, 21)
	MatMul(want, a.Transpose(), b)
	if d := c.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("MatMulTransA: max diff %v", d)
	}
}

func TestMatMulTransBMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 23, 31) // m×k
	b := randomMatrix(rng, 19, 31) // n×k
	c := New(23, 19)
	MatMulTransB(c, a, b)
	want := New(23, 19)
	MatMul(want, a, b.Transpose())
	if d := c.MaxAbsDiff(want); d > 1e-3 {
		t.Fatalf("MatMulTransB: max diff %v", d)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestMatMulZeroDims(t *testing.T) {
	c := New(0, 5)
	MatMul(c, New(0, 3), New(3, 5))
	c2 := New(4, 0)
	MatMul(c2, New(4, 3), New(3, 0))
	// Must not panic; nothing to verify beyond that.
}

func TestMatMulAssociativityWithIdentityProperty(t *testing.T) {
	// Property: (A×B) row sums equal A×(B row-sums-vector) when B has a
	// column of ones appended — here simplified as distributivity:
	// A×(B+C) == A×B + A×C.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 9, 6)
		b := randomMatrix(rng, 6, 7)
		cc := randomMatrix(rng, 6, 7)
		sum := b.Clone()
		sum.Add(cc)
		left := New(9, 7)
		MatMul(left, a, sum)
		right1 := New(9, 7)
		MatMul(right1, a, b)
		right2 := New(9, 7)
		MatMul(right2, a, cc)
		right1.Add(right2)
		return left.MaxAbsDiff(right1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomMatrix(rng, 256, 256)
	y := randomMatrix(rng, 256, 256)
	c := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(c, x, y)
	}
}

// TestMatMulFamilyAllocs pins each GEMM at one allocation per call on
// one kernel worker: the task closure handed to the pool. MatMulTransB's
// copy of Bᵀ comes from a parallel.Scratch, which allocates nothing once
// warm.
func TestMatMulFamilyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	defer parallel.Configure(parallel.Config{Workers: parallel.Workers()})
	parallel.Configure(parallel.Config{Workers: 1})
	rng := rand.New(rand.NewSource(1))
	x, w, dy := randomMatrix(rng, 204, 64), randomMatrix(rng, 64, 41), randomMatrix(rng, 204, 41)
	y, dW, dx := New(204, 41), New(64, 41), New(204, 64)
	for name, run := range map[string]func(){
		"MatMul":       func() { MatMul(y, x, w) },
		"MatMulTransA": func() { MatMulTransA(dW, x, dy) },
		"MatMulTransB": func() { MatMulTransB(dx, dy, w) },
	} {
		run()
		if allocs := testing.AllocsPerRun(50, run); allocs > 1 {
			t.Errorf("%s: %v allocations per call, want 1", name, allocs)
		}
	}
}

// BenchmarkMatMulFamily times the three GEMMs of one Linear layer at
// fb-reddit's shapes (reddit-sim at scale 0.05: 204 rows, widths 41 and
// 64) on one kernel worker: the forward y = x·W (MatMul), the weight
// gradient dW = xᵀ·dy (MatMulTransA) and the input gradient dx = dy·Wᵀ
// (MatMulTransB), for a layer of in inputs and out outputs.
func BenchmarkMatMulFamily(b *testing.B) {
	defer parallel.Configure(parallel.Config{Workers: parallel.Workers()})
	parallel.Configure(parallel.Config{Workers: 1})
	const rows = 204
	for _, in := range []int{41, 64} {
		for _, out := range []int{41, 64} {
			rng := rand.New(rand.NewSource(1))
			x, w := randomMatrix(rng, rows, in), randomMatrix(rng, in, out)
			dy := randomMatrix(rng, rows, out)
			y, dW, dx := New(rows, out), New(in, out), New(rows, in)
			shape := fmt.Sprintf("in=%d/out=%d", in, out)
			for _, g := range []struct {
				name string
				run  func()
			}{
				{"MatMul", func() { MatMul(y, x, w) }},
				{"MatMulTransA", func() { MatMulTransA(dW, x, dy) }},
				{"MatMulTransB", func() { MatMulTransB(dx, dy, w) }},
			} {
				b.Run(g.name+"/"+shape, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						g.run()
					}
				})
			}
		}
	}
}
