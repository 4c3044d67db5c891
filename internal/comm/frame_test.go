package comm

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/quant"
)

// TestFrameHeaderGolden pins the exact wire bytes of the frame header: a
// change here is a wire-format break that strands every peer on the old
// layout, so it must be deliberate (and bump the magic). "DGW3" dropped
// DGW2's simulated completion time at offset 24: the header is 28 bytes.
func TestFrameHeaderGolden(t *testing.T) {
	env := &Envelope{
		Tag: 0x0102030405, Prec: quant.BF16,
		U16: []uint16{0xBEEF, 0x1234},
	}
	buf := appendDataFrame(nil, 3, 7, env)
	want := []byte{
		'D', 'G', 'W', '3', // magic
		1,    // kind = data
		1,    // precision = bf16
		0, 0, // reserved
		3, 0, 0, 0, // src rank, LE
		7, 0, 0, 0, // dst rank, LE
		0x05, 0x04, 0x03, 0x02, 0x01, 0, 0, 0, // tag, LE int64
		4, 0, 0, 0, // payload length: 2 × uint16
		0xEF, 0xBE, // payload word 0, LE
		0x34, 0x12, // payload word 1, LE
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("frame bytes changed:\n got %x\nwant %x", buf, want)
	}
}

func TestFrameHeaderRejectsCorruption(t *testing.T) {
	good := appendDataFrame(nil, 0, 1, &Envelope{Tag: 1, Prec: quant.FP32, F32: []float32{1}})
	for name, mutate := range map[string]func([]byte){
		"magic":     func(b []byte) { b[0] = 'X' },
		"version":   func(b []byte) { b[3] = '2' }, // the 36-byte layout
		"kind":      func(b []byte) { b[4] = 99 },
		"precision": func(b []byte) { b[5] = 77 },
		"reserved":  func(b []byte) { b[6] = '0' }, // v1 reserves these as zero

		"length":      func(b []byte) { b[24], b[25], b[26], b[27] = 0xFF, 0xFF, 0xFF, 0x7F },
		"granularity": func(b []byte) { b[24] = 3 }, // fp32 payload not a multiple of 4
	} {
		b := append([]byte(nil), good...)
		mutate(b)
		if _, err := parseFrameHeader(b); err == nil {
			t.Errorf("%s corruption must fail header parse", name)
		}
	}
	if _, err := parseFrameHeader(good[:10]); err == nil {
		t.Error("truncated header must fail parse")
	}
}

// TestFrameRoundTripProperty: encode∘decode is the identity for random
// envelopes across all precisions — including zero-length payloads and a
// payload at exactly the frame size limit.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(env *Envelope, src, dst int) {
		t.Helper()
		buf := appendDataFrame(nil, src, dst, env)
		h, got, _, err := readFrame(bytes.NewReader(buf), new([frameHeaderSize]byte))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if int(h.Src) != src || int(h.Dst) != dst || h.Kind != kindData {
			t.Fatalf("routing fields: src %d dst %d kind %d", h.Src, h.Dst, h.Kind)
		}
		if got.Tag != env.Tag || got.Prec != env.Prec {
			t.Fatalf("metadata: got %+v want %+v", got, env)
		}
		if len(got.F32) != len(env.F32) || len(got.U16) != len(env.U16) {
			t.Fatalf("payload length: got %d/%d want %d/%d",
				len(got.F32), len(got.U16), len(env.F32), len(env.U16))
		}
		for i := range env.F32 {
			if math.Float32bits(got.F32[i]) != math.Float32bits(env.F32[i]) {
				t.Fatalf("f32[%d]: %x != %x", i, math.Float32bits(got.F32[i]), math.Float32bits(env.F32[i]))
			}
		}
		for i := range env.U16 {
			if got.U16[i] != env.U16[i] {
				t.Fatalf("u16[%d]: %x != %x", i, got.U16[i], env.U16[i])
			}
		}
	}

	for iter := 0; iter < 200; iter++ {
		env := &Envelope{Tag: int(int32(rng.Uint32()))} // mixed-sign tags
		n := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			env.Prec = quant.FP32
			if n > 0 {
				env.F32 = make([]float32, n)
				for i := range env.F32 {
					// Raw bit patterns: NaNs, infs, denormals must all survive.
					env.F32[i] = math.Float32frombits(rng.Uint32())
				}
			}
		case 1:
			env.Prec = quant.BF16
			if n > 0 {
				env.U16 = make([]uint16, n)
				for i := range env.U16 {
					env.U16[i] = uint16(rng.Uint32())
				}
			}
		default:
			env.Prec = quant.FP16
			if n > 0 {
				env.U16 = make([]uint16, n)
				for i := range env.U16 {
					env.U16[i] = uint16(rng.Uint32())
				}
			}
		}
		check(env, rng.Intn(1024), rng.Intn(1024))
	}

	// Zero-length frames (empty AlltoAllV rows).
	check(&Envelope{Tag: -5, Prec: quant.FP32}, 0, 1)
	check(&Envelope{Tag: 9, Prec: quant.FP16}, 2, 0)

	// The exact size limit, exercised with the limit lowered so the
	// boundary cases don't need gigabyte allocations.
	defer func(orig uint32) { maxFramePayload = orig }(maxFramePayload)
	maxFramePayload = 1 << 16
	maxF32 := make([]float32, maxFramePayload/4)
	for i := range maxF32 {
		maxF32[i] = float32(i)
	}
	check(&Envelope{Tag: 1, Prec: quant.FP32, F32: maxF32}, 0, 1)

	// One element over the limit must be rejected at the header.
	over := appendDataFrame(nil, 0, 1, &Envelope{Tag: 1, Prec: quant.FP32,
		F32: make([]float32, maxFramePayload/4+1)})
	if _, _, _, err := readFrame(bytes.NewReader(over), new([frameHeaderSize]byte)); err == nil {
		t.Fatal("oversized frame must fail to decode")
	}
}

// FuzzFrameDecode hardens the decoder against arbitrary bytes: it must
// never panic, and whatever it accepts must re-encode to the same frame.
func FuzzFrameDecode(f *testing.F) {
	f.Add(appendDataFrame(nil, 0, 1, &Envelope{Tag: 3, Prec: quant.FP32, F32: []float32{1, -2}}))
	f.Add(appendDataFrame(nil, 1, 0, &Envelope{Tag: -9, Prec: quant.FP16, U16: []uint16{77}}))
	f.Add(appendControlFrame(nil, kindHello, 2, 0, []byte("127.0.0.1:999")))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, env, _, err := readFrame(bytes.NewReader(b), new([frameHeaderSize]byte))
		if err != nil || h.Kind != kindData {
			return
		}
		re := appendDataFrame(nil, int(h.Src), int(h.Dst), env)
		if !bytes.Equal(re, b[:len(re)]) {
			t.Fatalf("accepted frame does not re-encode identically")
		}
	})
}
