package quant

import (
	"math"
	"math/rand"
	"testing"
)

// halfULP returns the round-to-nearest error bound for a value rounded to a
// format with the given explicit mantissa bits and minimum normal exponent:
// half a ULP at the value's binade for normals, half the subnormal step
// below the normal range.
func halfULP(v float64, mantBits, minExp int) float64 {
	e := math.Ilogb(v)
	if e < minExp {
		e = minExp
	}
	return math.Ldexp(1, e-mantBits-1)
}

// bf16 has 7 explicit mantissa bits and float32's exponent range; fp16 has
// 10 and normals down to 2^-14.
const (
	bf16Mant, bf16MinExp = 7, -126
	fp16Mant, fp16MinExp = 10, -14
	bf16Max              = 3.3895313892515355e38 // 2^127 × (2 − 2⁻⁷)
	fp16Max              = 65504
)

func checkRoundTrip(t *testing.T, bits uint32, enc func(float32) uint16,
	dec func(uint16) float32, mantBits, minExp int, max float64) {
	t.Helper()
	v := math.Float32frombits(bits)
	h := enc(v)
	got := dec(h)
	switch {
	case math.IsNaN(float64(v)):
		if !math.IsNaN(float64(got)) {
			t.Fatalf("NaN %#x must round-trip to NaN, got %v", bits, got)
		}
		return
	case math.IsInf(float64(v), 0):
		if got != v {
			t.Fatalf("Inf %v must round-trip exactly, got %v", v, got)
		}
		return
	}
	if math.IsNaN(float64(got)) {
		t.Fatalf("finite %v round-tripped to NaN", v)
	}
	if math.Signbit(float64(got)) != math.Signbit(float64(v)) {
		t.Fatalf("%v: sign flipped to %v", v, got)
	}
	if math.IsInf(float64(got), 0) {
		// Overflow to Inf is only legal above the format's max finite value.
		if math.Abs(float64(v)) <= max {
			t.Fatalf("%v within range overflowed to %v", v, got)
		}
		return
	}
	// Round-to-nearest: error bounded by half a ULP of the target format
	// (absolute half-step in the subnormal range).
	if err := math.Abs(float64(got) - float64(v)); err > halfULP(float64(v), mantBits, minExp) {
		t.Fatalf("%v → %v: error %v exceeds half ULP %v",
			v, got, err, halfULP(float64(v), mantBits, minExp))
	}
	// Decoded values are exactly representable: re-encoding must be stable.
	if h2 := enc(got); dec(h2) != got {
		t.Fatalf("%v: decode∘encode not idempotent (%v → %v)", v, got, dec(h2))
	}
}

func fuzzSeeds(f *testing.F) {
	for _, bits := range []uint32{
		0, 0x80000000, // ±0
		math.Float32bits(1), math.Float32bits(-1.5), math.Float32bits(3.14159),
		math.Float32bits(65504), math.Float32bits(65520), // fp16 max / first overflow
		math.Float32bits(6.1e-5), math.Float32bits(5.96e-8), // fp16 subnormals
		math.Float32bits(1e-40), // float32 subnormal
		0x7F800000, 0xFF800000,  // ±Inf
		0x7FC00001, 0x7F800001, // quiet/signalling NaN
		0x7F7FFFFF, // MaxFloat32
		math.Float32bits(float32(math.Pi) * 1e30), // large normal
	} {
		f.Add(bits)
	}
}

func FuzzBF16RoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, bits uint32) {
		checkRoundTrip(t, bits, BF16Encode, BF16Decode, bf16Mant, bf16MinExp, bf16Max)
	})
}

func FuzzFP16RoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, bits uint32) {
		checkRoundTrip(t, bits, FP16Encode, FP16Decode, fp16Mant, fp16MinExp, fp16Max)
	})
}

// TestRoundTripULPBoundRandomSweep drives the same half-ULP invariant over
// a broad random sweep of raw bit patterns (uniform over all float32s, so
// NaNs, infinities and subnormals all appear), independent of the fuzzer.
func TestRoundTripULPBoundRandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		bits := rng.Uint32()
		checkRoundTrip(t, bits, BF16Encode, BF16Decode, bf16Mant, bf16MinExp, bf16Max)
		checkRoundTrip(t, bits, FP16Encode, FP16Decode, fp16Mant, fp16MinExp, fp16Max)
	}
}

// TestPackUnpackInverseOnRandomBuffers: Unpack∘Pack must equal RoundSlice
// bitwise on arbitrary buffers — the property that lets the nonblocking
// request path carry 16-bit wire payloads while the blocking path rounds in
// place, with both observing identical values.
func TestPackUnpackInverseOnRandomBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []Precision{BF16, FP16} {
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(500)
			src := make([]float32, n)
			for i := range src {
				switch rng.Intn(10) {
				case 0:
					src[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
				case 1:
					src[i] = float32(math.NaN())
				case 2:
					src[i] = math.Float32frombits(rng.Uint32()) // arbitrary bits
				case 3:
					src[i] = float32(math.Ldexp(rng.Float64(), -140)) // subnormal
				default:
					src[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-5)))
				}
			}
			wire := p.Pack(nil, src)
			if len(wire) != n {
				t.Fatalf("%v: packed %d words from %d elements", p, len(wire), n)
			}
			got := p.Unpack(nil, wire)
			want := p.RoundSlice(append([]float32(nil), src...))
			for i := range want {
				gBits := math.Float32bits(got[i])
				wBits := math.Float32bits(want[i])
				wNaN := math.IsNaN(float64(want[i]))
				if wNaN != math.IsNaN(float64(got[i])) || (!wNaN && gBits != wBits) {
					t.Fatalf("%v: element %d: unpack %v (%#x) vs RoundSlice %v (%#x)",
						p, i, got[i], gBits, want[i], wBits)
				}
			}
		}
	}
	// FP32 has no packed form: Pack signals it with nil.
	if FP32.Pack(nil, []float32{1, 2}) != nil {
		t.Fatal("FP32 Pack must return nil")
	}
}

// TestPackAppendsToDst pins the append contract both directions use to
// reuse staging buffers.
func TestPackAppendsToDst(t *testing.T) {
	wire := BF16.Pack(make([]uint16, 0, 8), []float32{1, 2})
	wire = BF16.Pack(wire, []float32{3})
	if len(wire) != 3 {
		t.Fatalf("packed length %d, want 3", len(wire))
	}
	vals := BF16.Unpack(nil, wire)
	if vals[0] != 1 || vals[1] != 2 || vals[2] != 3 {
		t.Fatalf("append semantics broken: %v", vals)
	}
}

// FuzzBF16CodeIdempotent: every bf16 code is a fixed point of
// encode∘decode — decoding a 16-bit word and re-encoding it must hand back
// the same word (NaN codes may renormalize but must stay NaN). This is the
// property that keeps the bf16 wire codec stable: re-rounding an
// already-rounded buffer is the identity, so a value that crosses the wire
// twice is rounded only once.
func FuzzBF16CodeIdempotent(f *testing.F) {
	for _, h := range []uint16{
		0, 0x8000, // ±0
		0x3F80, 0xBFC0, // ±normals
		0x0001, 0x8001, // smallest subnormals
		0x7F7F, 0xFF7F, // ±max finite
		0x7F80, 0xFF80, // ±Inf
		0x7FC0, 0x7F81, // NaNs
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h uint16) {
		v := BF16Decode(h)
		h2 := BF16Encode(v)
		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(BF16Decode(h2))) {
				t.Fatalf("NaN code %#04x re-encoded to non-NaN %#04x", h, h2)
			}
			return
		}
		if h2 != h {
			t.Fatalf("code %#04x (%v) re-encoded to %#04x: encode∘decode not the identity", h, v, h2)
		}
	})
}

// checkBF16RNE verifies BF16Encode against an independent round-to-nearest-
// even reference built from the two bracketing bf16 codes: truncation
// toward zero and its successor away from zero. The encoder must pick the
// nearer value, and break exact ties toward the code with an even (clear)
// low mantissa bit. The reference shares no arithmetic with the encoder's
// add-rounding-bias implementation.
func checkBF16RNE(t *testing.T, bits uint32) {
	t.Helper()
	v := math.Float32frombits(bits)
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return // covered by FuzzBF16RoundTrip
	}
	h := BF16Encode(v)
	lo := uint16(bits >> 16)
	if uint32(lo)<<16 == bits {
		if h != lo {
			t.Fatalf("exactly representable %v must encode to itself: got %#04x want %#04x", v, h, lo)
		}
		return
	}
	hi := lo + 1
	val := func(c uint16) float64 {
		d := BF16Decode(c)
		if math.IsInf(float64(d), 0) {
			// The rounding boundary above the max finite bf16 is 2^128.
			return math.Copysign(math.Ldexp(1, 128), float64(d))
		}
		return float64(d)
	}
	dLo := math.Abs(float64(v) - val(lo))
	dHi := math.Abs(val(hi) - float64(v))
	want := lo
	switch {
	case dHi < dLo:
		want = hi
	case dLo < dHi:
		want = lo
	default: // exact tie: even mantissa wins, and hi = lo+1 flips the low bit
		if lo&1 == 1 {
			want = hi
		}
	}
	if h != want {
		t.Fatalf("%v (bits %#08x): encoded %#04x, RNE reference %#04x (bracket %v / %v)",
			v, bits, h, want, val(lo), val(hi))
	}
}

// FuzzBF16RoundToNearestEven fuzzes the RNE property over raw float32 bit
// patterns.
func FuzzBF16RoundToNearestEven(f *testing.F) {
	fuzzSeeds(f)
	// Halfway patterns: mantissa tail exactly 0x8000 above even and odd
	// truncations — the tie-to-even cases.
	f.Add(uint32(0x3F808000))
	f.Add(uint32(0x3F818000))
	f.Add(uint32(0xBF818000))
	f.Fuzz(func(t *testing.T, bits uint32) { checkBF16RNE(t, bits) })
}

// TestBF16RNERandomSweep drives the RNE reference over a uniform random
// sweep of bit patterns so the property also runs under plain `go test`.
func TestBF16RNERandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		checkBF16RNE(t, rng.Uint32())
	}
	// And the code-idempotency companion over every one of the 65536 codes
	// — exhaustive, cheap, and fuzzer-independent.
	for c := 0; c <= 0xFFFF; c++ {
		h := uint16(c)
		v := BF16Decode(h)
		h2 := BF16Encode(v)
		if math.IsNaN(float64(v)) {
			if !math.IsNaN(float64(BF16Decode(h2))) {
				t.Fatalf("NaN code %#04x re-encoded to non-NaN %#04x", h, h2)
			}
			continue
		}
		if h2 != h {
			t.Fatalf("code %#04x (%v) re-encoded to %#04x", h, v, h2)
		}
	}
}
