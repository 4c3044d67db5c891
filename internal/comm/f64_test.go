package comm

import (
	"math"
	"testing"
)

// TestF64RoundTrip pins the float64-over-float32 word packing bit for bit,
// including the values a float32 lane could canonicalize or flush: signed
// zeros, subnormals, infinities, NaN payloads, and int64 counters carried
// as bit patterns.
func TestF64RoundTrip(t *testing.T) {
	bits := []uint64{
		0,                     // +0
		1 << 63,               // -0
		1,                     // smallest subnormal
		0x000fffffffffffff,    // largest subnormal
		0x800fffffffffffff,    // negative subnormal
		0x7ff0000000000000,    // +Inf
		0xfff0000000000000,    // -Inf
		0x7ff8000000000001,    // quiet NaN with payload
		0x7ff0000000000001,    // signalling NaN
		0xfff4000000000abc,    // negative NaN with payload
		0x000000007fc00001,    // low word is a float32 NaN
		0x7f80000100000000,    // high word is a float32 signalling NaN
		math.Float64bits(0.1), // ordinary value
	}
	for _, n := range []int64{1, -1, math.MaxInt64, math.MinInt64, 123456789012} {
		bits = append(bits, uint64(n))
	}
	var words []float32
	for _, b := range bits {
		words = AppendF64(words, math.Float64frombits(b))
	}
	if len(words) != 2*len(bits) {
		t.Fatalf("%d words for %d values", len(words), len(bits))
	}
	// Carry the words across a real collective too: the lane must move
	// bit patterns untouched.
	w := NewWorld(2)
	got := make([][]float32, 2)
	w.Run(func(rank int) { got[rank] = w.AllGather(rank, words) })
	for i, b := range bits {
		for rank, all := range got {
			if back := math.Float64bits(F64(all[2*i:])); back != b {
				t.Fatalf("rank %d value %d: %#016x came back as %#016x", rank, i, b, back)
			}
		}
		if n := int64(math.Float64bits(F64(words[2*i:]))); n != int64(b) {
			t.Fatalf("value %d: int64 %d came back as %d", i, int64(b), n)
		}
	}
}
