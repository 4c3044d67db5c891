package comm

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"distgnn/internal/quant"
)

// wireBits returns n float32s of random bits mixed with the values a
// codec is most likely to get wrong: ±0, subnormals, ±Inf and NaNs with
// payloads, quiet and signalling.
func wireBits(rng *rand.Rand, n int) []float32 {
	special := []uint32{
		0, 0x80000000, // ±0
		0x00000001, 0x807fffff, // subnormals
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc12345, 0x7f800001, 0xff9abcde, // quiet and signalling NaNs
	}
	out := make([]float32, n)
	for i := range out {
		b := rng.Uint32()
		if rng.Intn(4) == 0 {
			b = special[rng.Intn(len(special))]
		}
		out[i] = math.Float32frombits(b)
	}
	return out
}

// TestFrameCodecFallbackMatchesFast: the per-element codec that runs on
// big-endian hosts (putPayloadWords, getPayloadWords) and the frame codec
// this host runs agree bit for bit — on random bits, special values, empty
// payloads and payloads at the size limit, for fp32 and 16-bit words.
func TestFrameCodecFallbackMatchesFast(t *testing.T) {
	defer func(orig uint32) { maxFramePayload = orig }(maxFramePayload)
	maxFramePayload = 1 << 16
	rng := rand.New(rand.NewSource(11))
	check := func(env *Envelope) {
		t.Helper()
		frame := appendDataFrame(nil, 1, 0, env)
		wire := frame[frameHeaderSize:]
		ref := make([]byte, len(payloadWords(env)))
		putPayloadWords(ref, env)
		if !bytes.Equal(wire, ref) {
			t.Fatalf("%v payload of %d bytes: encoded bytes differ from the per-element encoder", env.Prec, len(ref))
		}
		_, got, _, err := readFrame(bytes.NewReader(frame), new([frameHeaderSize]byte))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		slow := &Envelope{Prec: env.Prec, F32: make([]float32, len(env.F32)), U16: make([]uint16, len(env.U16))}
		getPayloadWords(slow, wire)
		for i, v := range env.F32 {
			if b := math.Float32bits(v); math.Float32bits(got.F32[i]) != b || math.Float32bits(slow.F32[i]) != b {
				t.Fatalf("f32[%d] %#08x: decoded %#08x, per-element %#08x", i, b, math.Float32bits(got.F32[i]), math.Float32bits(slow.F32[i]))
			}
		}
		for i, v := range env.U16 {
			if got.U16[i] != v || slow.U16[i] != v {
				t.Fatalf("u16[%d] %#04x: decoded %#04x, per-element %#04x", i, v, got.U16[i], slow.U16[i])
			}
		}
		if len(got.F32) != len(env.F32) || len(got.U16) != len(env.U16) {
			t.Fatalf("payload length: got %d/%d want %d/%d", len(got.F32), len(got.U16), len(env.F32), len(env.U16))
		}
	}
	lengths := []int{0, 1, 3, 8, 1001}
	for _, n := range lengths {
		check(&Envelope{Tag: n, Prec: quant.FP32, F32: wireBits(rng, n)})
		u := make([]uint16, n)
		for i := range u {
			u[i] = uint16(rng.Uint32())
		}
		check(&Envelope{Tag: n, Prec: quant.BF16, U16: u})
	}
	check(&Envelope{Prec: quant.FP32, F32: wireBits(rng, int(maxFramePayload/4))})
	limit := make([]uint16, maxFramePayload/2)
	for i := range limit {
		limit[i] = uint16(rng.Uint32())
	}
	check(&Envelope{Prec: quant.FP16, U16: limit})
}

// TestWireAllocs counts the TCP codec's heap work per frame. A warm data
// frame encode — into the peer's reused scratch buffer, as Send does —
// allocates nothing. Receiving one fp32 frame through a buffered reader,
// as readLoop does, allocates the Envelope and its payload words and
// nothing else: no staging []byte, no header.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const words = 1024 // a 4 KiB payload: exactly one size class
	env := &Envelope{Tag: 5, Prec: quant.FP32, F32: wireBits(rand.New(rand.NewSource(3)), words)}
	buf := appendDataFrame(nil, 0, 1, env)
	frame := append([]byte(nil), buf...)
	if a := testing.AllocsPerRun(100, func() { buf = appendDataFrame(buf[:0], 0, 1, env) }); a != 0 {
		t.Errorf("warm data-frame encode: %v allocations, want 0", a)
	}

	rd := bytes.NewReader(frame)
	br := bufio.NewReaderSize(rd, 1<<16)
	hdr := new([frameHeaderSize]byte)
	recv := func() {
		rd.Reset(frame)
		br.Reset(rd)
		if _, got, _, err := readFrame(br, hdr); err != nil || len(got.F32) != words {
			t.Fatalf("decode: %v", err)
		}
	}
	a := testing.AllocsPerRun(100, recv)
	if a != 2 {
		t.Errorf("receiving one fp32 frame: %v allocations, want 2 (the envelope and its words)", a)
	}
	const runs = 100
	recv()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recv()
	}
	runtime.ReadMemStats(&after)
	const slack = 128 // the Envelope itself
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("receiving one %d-byte fp32 frame: %.0f allocs, %d B", 4*words, a, per)
	if per > 4*words+slack {
		t.Errorf("receiving one fp32 frame: %d bytes allocated, want at most %d (payload %d + %d)", per, 4*words+slack, 4*words, slack)
	}
}
