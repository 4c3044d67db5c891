package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The assembly ≡ reference pin: every kernel entry point (assembly on an
// AVX machine, the reference itself under -tags purego) must match its
// pure-Go reference bit for bit across widths that hit every column-block
// and tail boundary (width 0 must be a no-op), empty and long index lists,
// and operands that include ±0, subnormals, ±Inf and NaN.

// 41 is reddit-sim's class count, 47 and 50 ogbn-products-sim's class and
// feature counts.
var kernelWidths = []int{0, 1, 7, 8, 9, 41, 47, 50, 63, 64, 65, 128, 200}

// defaultNaN is the NaN x86 produces for Inf−Inf and 0·Inf. Using it as the
// only input NaN keeps every NaN in these tests the same bit pattern, so
// they compare exactly whatever operand order either side used.
var defaultNaN = math.Float32frombits(0xffc00000)

// specialValue draws an ordinary normal, or with probability rate one of
// ±0, a ± subnormal, ±Inf or NaN.
func specialValue(rng *rand.Rand, rate float64) float32 {
	if rng.Float64() < rate {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		case 2:
			return math.Float32frombits(1 + uint32(rng.Intn(1<<23-1)))
		case 3:
			return -math.Float32frombits(1 + uint32(rng.Intn(1<<23-1)))
		case 4:
			return float32(math.Inf(1))
		case 5:
			return float32(math.Inf(-1))
		default:
			return defaultNaN
		}
	}
	return float32(rng.NormFloat64())
}

func specialSlice(rng *rand.Rand, n int, rate float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = specialValue(rng, rate)
	}
	return out
}

// specialRates: none; sparse enough that long lists do not saturate to
// NaN; dense enough that short lists hit every special case.
var specialRates = []float64{0, 0.01, 0.5}

// sameFloats reports the first index where got and want differ in bits,
// or -1. With nanEq, any two NaNs match: x86 returns the payload of the
// first NaN operand, and the Go compiler may put either operand of a
// commutative op first, so payloads of mixed NaNs are not a property of
// the source.
func sameFloats(got, want []float32, nanEq bool) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) == math.Float32bits(w) {
			continue
		}
		if nanEq && g != g && w != w {
			continue
		}
		return i
	}
	return -1
}

func TestGatherSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range kernelWidths {
		for _, nIdx := range []int{0, 1, 3, 300} {
			for _, rate := range specialRates {
				for _, pad := range []int{0, 3} {
					const rows = 17
					stride := w + pad
					src := specialSlice(rng, rows*stride, rate)
					idx := make([]int32, nIdx)
					for q := range idx {
						idx[q] = int32(rng.Intn(rows))
					}
					dst := specialSlice(rng, w, rate)
					want := append([]float32(nil), dst...)
					gatherSumRef(want, src, idx, stride)
					GatherSum(dst, src, idx, stride)
					if j := sameFloats(dst, want, false); j >= 0 {
						t.Fatalf("w=%d idx=%d rate=%v pad=%d: col %d got %v (%#08x) want %v (%#08x)",
							w, nIdx, rate, pad, j, dst[j], math.Float32bits(dst[j]), want[j], math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

func TestAxpyRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range kernelWidths {
		for _, k := range []int{0, 1, 2, 3, 5, 17, 300} {
			for _, cstride := range []int{1, 3} {
				for _, rate := range specialRates {
					stride := w + 5
					b := specialSlice(rng, k*stride, rate)
					coef := specialSlice(rng, max(0, (k-1)*cstride+1), 0.5) // zero coefficients in every case
					dst := specialSlice(rng, w, rate)
					want := append([]float32(nil), dst...)
					axpyRowsRef(want, coef, cstride, b, stride)
					axpyRows(dst, coef, cstride, b, stride)
					if j := sameFloats(dst, want, false); j >= 0 {
						t.Fatalf("w=%d k=%d cstride=%d rate=%v: col %d got %v (%#08x) want %v (%#08x)",
							w, k, cstride, rate, j, dst[j], math.Float32bits(dst[j]), want[j], math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

// TestDotRowsMatchesReference runs the column dots over a transposed
// operand at every output width (each n mod 16 class the 16-column
// blocks, the 8-column block and the masked tail can see) and inner
// lengths on both sides of the 4-lane classes.
func TestDotRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelWidths {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 9, 64} {
			for _, rate := range specialRates {
				stride := n + 2
				a := specialSlice(rng, k, rate)
				bt := specialSlice(rng, k*stride, rate)
				got := specialSlice(rng, n, 0.5) // overwritten, never read
				want := make([]float32, n)
				dotRowsRef(want, a, bt, stride)
				dotRows(got, a, bt, stride)
				if j := sameFloats(got, want, false); j >= 0 {
					t.Fatalf("k=%d n=%d rate=%v: col %d got %v (%#08x) want %v (%#08x)",
						k, n, rate, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}
}

// TestReLUMatchesReference checks both rectifier kernels against their
// references at every width, into a fresh destination and in place, with
// operands drawn from ±0, subnormals, ±Inf and NaN. The outputs must match
// bit for bit, NaN included: neither rule ever passes a NaN of x through,
// and ReLUGrad copies dy's bits unchanged.
func TestReLUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, w := range kernelWidths {
		for _, rate := range specialRates {
			x := specialSlice(rng, w, rate)
			dy := specialSlice(rng, w, rate)

			want := specialSlice(rng, w, 0.5)
			got := specialSlice(rng, w, 0.5)
			reluRef(want, x)
			ReLU(got, x)
			if j := sameFloats(got, want, false); j >= 0 {
				t.Fatalf("ReLU w=%d rate=%v: col %d of %#08x got %#08x want %#08x",
					w, rate, j, math.Float32bits(x[j]), math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
			for j, v := range got {
				if v != v || math.Float32bits(v) == 0x80000000 {
					t.Fatalf("ReLU w=%d: col %d is %#08x, want a number > 0 or +0", w, j, math.Float32bits(v))
				}
			}
			inPlace := append([]float32(nil), x...)
			ReLU(inPlace, inPlace)
			if j := sameFloats(inPlace, want, false); j >= 0 {
				t.Fatalf("ReLU in place w=%d rate=%v: col %d got %#08x want %#08x",
					w, rate, j, math.Float32bits(inPlace[j]), math.Float32bits(want[j]))
			}

			reluGradRef(want, dy, x)
			ReLUGrad(got, dy, x)
			if j := sameFloats(got, want, false); j >= 0 {
				t.Fatalf("ReLUGrad w=%d rate=%v: col %d (y %#08x, dy %#08x) got %#08x want %#08x",
					w, rate, j, math.Float32bits(x[j]), math.Float32bits(dy[j]), math.Float32bits(got[j]), math.Float32bits(want[j]))
			}
			inPlace = append(inPlace[:0], dy...)
			ReLUGrad(inPlace, inPlace, x)
			if j := sameFloats(inPlace, want, false); j >= 0 {
				t.Fatalf("ReLUGrad in place w=%d rate=%v: col %d got %#08x want %#08x",
					w, rate, j, math.Float32bits(inPlace[j]), math.Float32bits(want[j]))
			}
		}
	}
}

// TestMatMulAccKeepsNegativeZero pins the av == 0 skip end to end: C starts
// at −0, A has zero entries against Inf/NaN in B, and every element must
// equal the sequential scalar loop — a −0 survives where every term is
// skipped, and 0·Inf never turns into NaN.
func TestMatMulAccKeepsNegativeZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	negZero := float32(math.Copysign(0, -1))
	for _, n := range kernelWidths {
		const m, k = 5, 9
		a := FromSlice(m, k, specialSlice(rng, m*k, 0.5))
		for p := 0; p < k; p++ {
			a.Set(0, p, 0) // row 0 skips every term
		}
		b := FromSlice(k, n, specialSlice(rng, k*n, 0.5))
		c := New(m, n)
		c.Fill(negZero)
		want := c.Clone()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := want.At(i, j)
				for p := 0; p < k; p++ {
					if av := a.At(i, p); av != 0 {
						s += float32(av * b.At(p, j))
					}
				}
				want.Set(i, j, s)
			}
		}
		MatMulAcc(c, a, b)
		if j := sameFloats(c.Data, want.Data, false); j >= 0 {
			t.Fatalf("n=%d: element %d got %v (%#08x) want %v (%#08x)",
				n, j, c.Data[j], math.Float32bits(c.Data[j]), want.Data[j], math.Float32bits(want.Data[j]))
		}
		for j := 0; j < n; j++ {
			if math.Float32bits(c.At(0, j)) != math.Float32bits(negZero) {
				t.Fatalf("n=%d: all-zero A row changed C[0][%d] from −0 to %v", n, j, c.At(0, j))
			}
		}
	}
}

// TestMatMulFamilyMatchesReference checks the three GEMMs against loops
// over the references, bit for bit, over ±0, subnormals, ±Inf and NaN.
// The dims put k past the inner-dimension strip (stripRows) at n = 41, 64
// and 200, give MatMulTransB every output width mod 16 (41, 47, 50, 64,
// 65, 200) and inner lengths under 4, and include inner dimension 0,
// where every GEMM must give zeros (MatMulTransB used to panic there).
func TestMatMulFamilyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][3]int{
		{3, 0, 5}, {1, 1, 1}, {7, 9, 41}, {20, 64, 64}, {6, 300, 65}, {33, 41, 8},
		{5, 3, 47}, {4, 2, 50}, {3, 1, 200}, {9, 200, 64}, {6, 300, 41}, {5, 100, 47},
		{4, 90, 50}, {3, 64, 200},
	} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, rate := range specialRates {
			a := FromSlice(m, k, specialSlice(rng, m*k, rate))
			b := FromSlice(k, n, specialSlice(rng, k*n, rate))

			want := New(m, n)
			for i := 0; i < m; i++ {
				axpyRowsRef(want.Row(i), a.Row(i), 1, b.Data, n)
			}
			c := New(m, n)
			c.Fill(7)
			MatMul(c, a, b)
			if j := sameFloats(c.Data, want.Data, false); j >= 0 {
				t.Fatalf("MatMul %v rate=%v: element %d got %#08x want %#08x",
					dims, rate, j, math.Float32bits(c.Data[j]), math.Float32bits(want.Data[j]))
			}

			at := a.Transpose() // k×m
			c.Fill(7)
			MatMulTransA(c, at, b)
			if j := sameFloats(c.Data, want.Data, false); j >= 0 {
				t.Fatalf("MatMulTransA %v rate=%v: element %d got %#08x want %#08x",
					dims, rate, j, math.Float32bits(c.Data[j]), math.Float32bits(want.Data[j]))
			}

			bt := b.Transpose() // n×k, the operand MatMulTransB takes
			wantT := New(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					wantT.Set(i, j, dot(a.Row(i), bt.Row(j), 1))
				}
			}
			c.Fill(7)
			MatMulTransB(c, a, bt)
			if j := sameFloats(c.Data, wantT.Data, false); j >= 0 {
				t.Fatalf("MatMulTransB %v rate=%v: element %d got %#08x want %#08x",
					dims, rate, j, math.Float32bits(c.Data[j]), math.Float32bits(wantT.Data[j]))
			}
		}
	}
}

// TestKernelBoundsChecks pins the memory-safety checks the assembly relies
// on: every out-of-range row panics before any kernel runs.
func TestKernelBoundsChecks(t *testing.T) {
	src := make([]float32, 4*8)
	cases := map[string]func(){
		"gather row past end": func() { GatherSum(make([]float32, 8), src, []int32{0, 4}, 8) },
		"gather negative row": func() { GatherSum(make([]float32, 8), src, []int32{-1}, 8) },
		"gather wide window":  func() { GatherSum(make([]float32, 33), src, []int32{0}, 0) },
		"gather last window":  func() { GatherSum(make([]float32, 8), src, []int32{3}, 9) },
		"axpy short b":        func() { axpyRows(make([]float32, 8), make([]float32, 5), 1, src, 8) },
		"axpy coef stride 0":  func() { axpyRows(make([]float32, 8), make([]float32, 5), 0, src, 8) },
		"axpy strided coef":   func() { axpyRows(make([]float32, 8), make([]float32, 17), 4, src, 8) },
		"dot short bt":        func() { dotRows(make([]float32, 8), make([]float32, 5), src, 8) },
		"dot wide out":        func() { dotRows(make([]float32, 9), make([]float32, 4), src, 8) },
		"relu short dst":      func() { ReLU(make([]float32, 7), src[:8]) },
		"relu grad short y":   func() { ReLUGrad(make([]float32, 8), src[:8], src[:7]) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	// The last in-range rows are accepted.
	GatherSum(make([]float32, 8), src, []int32{3}, 8)
	axpyRows(make([]float32, 8), make([]float32, 13), 4, src, 8)
	dotRows(make([]float32, 8), make([]float32, 4), src, 8)
}

// fuzzFloats decodes data as little-endian float32s, cycling to fill n.
func fuzzFloats(data []byte, n int) []float32 {
	out := make([]float32, n)
	if len(data) < 4 {
		return out
	}
	words := len(data) / 4
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(i%words):]))
	}
	return out
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0x80, 0x7f}, uint8(41), uint8(7), uint8(3))
	f.Add([]byte{0, 0, 0xc0, 0xff, 0, 0, 0x80, 0xff, 0xcd, 0xcc, 0x4c, 0x3e}, uint8(64), uint8(50), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))
}

// FuzzGatherSum: GatherSum ≡ gatherSumRef on arbitrary operand bits.
func FuzzGatherSum(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, w, n, pad uint8) {
		const rows = 9
		stride := int(w) + int(pad%8)
		src := fuzzFloats(data, rows*stride)
		idx := make([]int32, n)
		for q := range idx {
			idx[q] = int32((q*7 + int(pad)) % rows)
		}
		dst := fuzzFloats(data[min(len(data), 4):], int(w))
		want := append([]float32(nil), dst...)
		gatherSumRef(want, src, idx, stride)
		GatherSum(dst, src, idx, stride)
		if j := sameFloats(dst, want, true); j >= 0 {
			t.Fatalf("w=%d n=%d: col %d got %#08x want %#08x", w, n, j, math.Float32bits(dst[j]), math.Float32bits(want[j]))
		}
	})
}

// FuzzAxpyRows: axpyRows ≡ axpyRowsRef on arbitrary operand bits, with a
// coefficient stride of 1 to 4.
func FuzzAxpyRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, w, k, pad uint8) {
		stride := int(w) + int(pad%8)
		cstride := 1 + int(pad/8)%4
		b := fuzzFloats(data, int(k)*stride)
		coef := fuzzFloats(data[min(len(data), 8):], max(0, (int(k)-1)*cstride+1))
		dst := fuzzFloats(data[min(len(data), 4):], int(w))
		want := append([]float32(nil), dst...)
		axpyRowsRef(want, coef, cstride, b, stride)
		axpyRows(dst, coef, cstride, b, stride)
		if j := sameFloats(dst, want, true); j >= 0 {
			t.Fatalf("w=%d k=%d cstride=%d: col %d got %#08x want %#08x", w, k, cstride, j, math.Float32bits(dst[j]), math.Float32bits(want[j]))
		}
	})
}

// FuzzDotRows: dotRows ≡ dotRowsRef on arbitrary operand bits, over a
// transposed k×n operand as MatMulTransB passes it.
func FuzzDotRows(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, k, n, pad uint8) {
		stride := int(n) + int(pad%8)
		a := fuzzFloats(data[min(len(data), 4):], int(k))
		bt := fuzzFloats(data, int(k)*stride)
		got := make([]float32, n)
		want := make([]float32, n)
		dotRowsRef(want, a, bt, stride)
		dotRows(got, a, bt, stride)
		if j := sameFloats(got, want, true); j >= 0 {
			t.Fatalf("k=%d n=%d: col %d got %#08x want %#08x", k, n, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	})
}

// FuzzReLU: ReLU ≡ reluRef and ReLUGrad ≡ reluGradRef on arbitrary operand
// bits. Both copy or zero, never compute, so even NaN payloads match.
func FuzzReLU(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, w, _, off uint8) {
		x := fuzzFloats(data, int(w))
		dy := fuzzFloats(data[min(len(data), 4*int(off%4)+4):], int(w))
		got := make([]float32, w)
		want := make([]float32, w)
		reluRef(want, x)
		ReLU(got, x)
		if j := sameFloats(got, want, false); j >= 0 {
			t.Fatalf("ReLU w=%d: col %d of %#08x got %#08x want %#08x", w, j, math.Float32bits(x[j]), math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
		reluGradRef(want, dy, x)
		ReLUGrad(got, dy, x)
		if j := sameFloats(got, want, false); j >= 0 {
			t.Fatalf("ReLUGrad w=%d: col %d got %#08x want %#08x", w, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
		}
	})
}
