//go:build amd64 && !purego

package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The bit pins compare against the references with one NaN pattern, so
// they cannot see which operand of an op the assembly puts first. x86
// returns the first operand's NaN when both are NaN, so the operand order
// decides which payload reaches the output. TestNaNPayloadOperandOrder
// pins the order the kernels document against a model of that rule:
// a product takes the coefficient (axpy) or a[p] (dot) first, a sum takes
// the running total first, and the dot combines its lane classes s0 first.

// nanFirst is an x86 binary op's result r for operands x and y: a NaN x
// wins, else a NaN y; a NaN made from numbers is the default NaN.
func nanFirst(x, y, r float32) float32 {
	switch {
	case x != x:
		return x
	case y != y:
		return y
	case r != r:
		return defaultNaN
	}
	return r
}

func mulFirst(x, y float32) float32 { return nanFirst(x, y, x*y) }
func addFirst(x, y float32) float32 { return nanFirst(x, y, x+y) }

// payloadValue is specialValue with each NaN given one of a few quiet
// payloads of either sign.
func payloadValue(rng *rand.Rand, rate float64) float32 {
	v := specialValue(rng, rate)
	if v != v {
		bits := uint32(0x7fc00000) | uint32(1+rng.Intn(7))<<4 | uint32(rng.Intn(2))<<31
		return math.Float32frombits(bits)
	}
	return v
}

func payloadSlice(rng *rand.Rand, n int, rate float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = payloadValue(rng, rate)
	}
	return out
}

func TestNaNPayloadOperandOrder(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: the kernels are the references")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range kernelWidths {
		for _, k := range []int{1, 3, 4, 5, 9, 64} {
			for _, rate := range []float64{0.1, 0.5} {
				stride := n + 1
				a := payloadSlice(rng, k, rate)
				bt := payloadSlice(rng, k*stride, rate)
				got := make([]float32, n)
				dotRows(got, a, bt, stride)
				for j, g := range got {
					var s [4]float32
					p := 0
					for ; p+4 <= k; p += 4 {
						for l := range s {
							s[l] = addFirst(s[l], mulFirst(a[p+l], bt[(p+l)*stride+j]))
						}
					}
					w := addFirst(addFirst(addFirst(s[0], s[1]), s[2]), s[3])
					for ; p < k; p++ {
						w = addFirst(w, mulFirst(a[p], bt[p*stride+j]))
					}
					if math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("dotRows k=%d n=%d rate=%v: col %d got %#08x want %#08x", k, n, rate, j, math.Float32bits(g), math.Float32bits(w))
					}
				}

				dst := payloadSlice(rng, n, rate)
				want := append([]float32(nil), dst...)
				axpyRows(dst, a, 1, bt, stride)
				for p, c := range a {
					if c == 0 {
						continue
					}
					for j := range want {
						want[j] = addFirst(want[j], mulFirst(c, bt[p*stride+j]))
					}
				}
				if j := sameFloats(dst, want, false); j >= 0 {
					t.Fatalf("axpyRows k=%d w=%d rate=%v: col %d got %#08x want %#08x", k, n, rate, j, math.Float32bits(dst[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}
