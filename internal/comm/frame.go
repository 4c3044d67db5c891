package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"unsafe"

	"distgnn/internal/quant"
)

// frame.go is the TCP transport's wire format: a fixed 28-byte
// length-prefixed header followed by the payload. Everything is
// little-endian. The 16-bit quant formats are the literal wire encoding —
// a BF16/FP16 payload crosses the network as the packed words quant.Pack
// produced, half the bytes of fp32. On a little-endian host a payload's
// words are already its wire bytes, so encoding one is a single copy into
// the frame and decoding one reads the socket straight into the
// envelope's words; elsewhere (nativeLE false) each word is converted on
// its own.
//
//	offset  size  field
//	0       4     magic "DGW3"
//	4       1     kind (data, hello, table, barrier, release)
//	5       1     precision (quant.FP32 / BF16 / FP16)
//	6       2     reserved (zero)
//	8       4     src rank
//	12      4     dst rank
//	16      8     tag (two's complement int64)
//	24      4     payload length in bytes
//	28      …     payload
//
// The magic names the layout: "DGW2" carried an 8-byte simulated
// completion time at offset 24 and "DGW1" a second cost word after it, so
// a peer on either layout fails the magic check instead of misparsing the
// length. No simulated time crosses the wire: cd-rs's overlap accounting
// is a replay computed from the exchange plans (train/timing.go).
const (
	frameMagic      = "DGW3"
	frameHeaderSize = 28
)

// maxFramePayload bounds one frame's payload (1 GiB — a 268M-parameter
// gradient buffer, far past any model this repo trains) so a corrupt or
// hostile length prefix fails fast instead of allocating unbounded memory.
// Oversized sends error at the sender (tcp.go). A variable so the codec
// tests can exercise the exact boundary without gigabyte allocations;
// production code never writes it.
var maxFramePayload uint32 = 1 << 30

// Frame kinds. kindData carries an Envelope; the rest are the transport's
// control plane (rendezvous and barrier).
const (
	kindData    byte = 1
	kindHello   byte = 2 // registration: src = rank, payload = listen address
	kindTable   byte = 3 // rendezvous reply: payload = newline-joined rank addresses
	kindBarrier byte = 4 // barrier arrival at rank 0
	kindRelease byte = 5 // barrier release from rank 0
)

// frameHeader is the decoded fixed header.
type frameHeader struct {
	Kind       byte
	Prec       quant.Precision
	Src, Dst   uint32
	Tag        int64
	PayloadLen uint32
}

// putFrameHeader encodes h into b (len ≥ frameHeaderSize).
func putFrameHeader(b []byte, h frameHeader) {
	copy(b[0:4], frameMagic)
	b[4] = h.Kind
	b[5] = byte(h.Prec)
	b[6], b[7] = 0, 0
	binary.LittleEndian.PutUint32(b[8:12], h.Src)
	binary.LittleEndian.PutUint32(b[12:16], h.Dst)
	binary.LittleEndian.PutUint64(b[16:24], uint64(h.Tag))
	binary.LittleEndian.PutUint32(b[24:28], h.PayloadLen)
}

// parseFrameHeader decodes and validates the fixed header.
func parseFrameHeader(b []byte) (frameHeader, error) {
	var h frameHeader
	if len(b) < frameHeaderSize {
		return h, fmt.Errorf("comm: frame header truncated: %d bytes", len(b))
	}
	if string(b[0:4]) != frameMagic {
		return h, fmt.Errorf("comm: bad frame magic %q", b[0:4])
	}
	h.Kind = b[4]
	h.Prec = quant.Precision(b[5])
	if h.Kind < kindData || h.Kind > kindRelease {
		return h, fmt.Errorf("comm: unknown frame kind %d", h.Kind)
	}
	if b[6] != 0 || b[7] != 0 {
		return h, fmt.Errorf("comm: nonzero reserved frame bytes %x %x", b[6], b[7])
	}
	switch h.Prec {
	case quant.FP32, quant.BF16, quant.FP16:
	default:
		return h, fmt.Errorf("comm: unknown wire precision %d", h.Prec)
	}
	h.Src = binary.LittleEndian.Uint32(b[8:12])
	h.Dst = binary.LittleEndian.Uint32(b[12:16])
	h.Tag = int64(binary.LittleEndian.Uint64(b[16:24]))
	h.PayloadLen = binary.LittleEndian.Uint32(b[24:28])
	if h.PayloadLen > maxFramePayload {
		return h, fmt.Errorf("comm: frame payload %d exceeds limit %d", h.PayloadLen, maxFramePayload)
	}
	elem := 4
	if h.Prec != quant.FP32 {
		elem = 2
	}
	if h.Kind == kindData && int(h.PayloadLen)%elem != 0 {
		return h, fmt.Errorf("comm: %v payload length %d not a multiple of %d",
			h.Prec, h.PayloadLen, elem)
	}
	return h, nil
}

// nativeLE reports whether this host stores a float32 or uint16
// little-endian, so that a payload's words in memory are already its wire
// bytes: encode is one copy and decode reads straight into the
// envelope's words. On any architecture not listed the per-element codec
// (putPayloadWords, getPayloadWords) runs instead; being a constant, the
// choice costs no branch at run time.
const nativeLE = runtime.GOARCH == "386" || runtime.GOARCH == "amd64" ||
	runtime.GOARCH == "arm" || runtime.GOARCH == "arm64" ||
	runtime.GOARCH == "loong64" || runtime.GOARCH == "mips64le" ||
	runtime.GOARCH == "mipsle" || runtime.GOARCH == "ppc64le" ||
	runtime.GOARCH == "riscv64" || runtime.GOARCH == "wasm"

// payloadWords views env's payload words — F32 for fp32, U16 otherwise —
// as their bytes in memory. Its length is the payload's wire length on any
// host; its contents are the wire bytes only where nativeLE holds.
func payloadWords(env *Envelope) []byte {
	if env.Prec == quant.FP32 {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(env.F32))), 4*len(env.F32))
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(env.U16))), 2*len(env.U16))
}

// putPayloadWords writes env's payload words into p (len(p) bytes, the
// payload's wire length) one little-endian word at a time.
func putPayloadWords(p []byte, env *Envelope) {
	if env.Prec == quant.FP32 {
		for i, v := range env.F32 {
			binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
		}
		return
	}
	for i, v := range env.U16 {
		binary.LittleEndian.PutUint16(p[2*i:], v)
	}
}

// getPayloadWords is putPayloadWords' inverse: it fills env's payload
// words, already sized to p, from the little-endian bytes of p.
func getPayloadWords(env *Envelope, p []byte) {
	if env.Prec == quant.FP32 {
		for i := range env.F32 {
			env.F32[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
		return
	}
	for i := range env.U16 {
		env.U16[i] = binary.LittleEndian.Uint16(p[2*i:])
	}
}

// appendDataFrame encodes one Envelope from src to dst as a complete data
// frame appended to buf — header plus payload, ready for a single Write.
// Every byte of the frame is written, so the bytes it extends buf over
// need no zeroing first, and a buf with the capacity allocates nothing.
func appendDataFrame(buf []byte, src, dst int, env *Envelope) []byte {
	words := payloadWords(env)
	h := frameHeader{
		Kind: kindData, Prec: env.Prec,
		Src: uint32(src), Dst: uint32(dst), Tag: int64(env.Tag),
		PayloadLen: uint32(len(words)),
	}
	off := len(buf)
	n := frameHeaderSize + len(words)
	buf = slices.Grow(buf, n)[:off+n]
	putFrameHeader(buf[off:], h)
	if nativeLE {
		copy(buf[off+frameHeaderSize:], words)
	} else {
		putPayloadWords(buf[off+frameHeaderSize:], env)
	}
	return buf
}

// appendControlFrame encodes a control frame (hello/table/barrier/release)
// with a raw byte payload and tag 0.
func appendControlFrame(buf []byte, kind byte, src, dst int, payload []byte) []byte {
	h := frameHeader{
		Kind: kind, Prec: quant.FP32,
		Src: uint32(src), Dst: uint32(dst),
		PayloadLen: uint32(len(payload)),
	}
	off := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize)...)
	putFrameHeader(buf[off:], h)
	return append(buf, payload...)
}

// readFrame reads one complete frame from r, its fixed header through
// hdr (the caller's, reused across frames, so reading one costs no
// allocation). A data frame decodes into a fresh Envelope whose payload
// words are allocated once, at the validated length, and read into
// directly; any other kind's payload comes back as raw bytes.
func readFrame(r io.Reader, hdr *[frameHeaderSize]byte) (frameHeader, *Envelope, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frameHeader{}, nil, nil, err
	}
	h, err := parseFrameHeader(hdr[:])
	if err != nil {
		return h, nil, nil, err
	}
	if h.Kind != kindData {
		if h.PayloadLen == 0 {
			return h, nil, nil, nil
		}
		payload := make([]byte, h.PayloadLen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return h, nil, nil, fmt.Errorf("comm: frame payload truncated: %w", err)
		}
		return h, nil, payload, nil
	}
	env := &Envelope{Tag: int(h.Tag), Prec: h.Prec}
	if h.PayloadLen == 0 {
		return h, env, nil, nil
	}
	if h.Prec == quant.FP32 {
		env.F32 = make([]float32, h.PayloadLen/4)
	} else {
		env.U16 = make([]uint16, h.PayloadLen/2)
	}
	p := payloadWords(env)
	if !nativeLE {
		p = make([]byte, len(p))
	}
	if _, err := io.ReadFull(r, p); err != nil {
		return h, nil, nil, fmt.Errorf("comm: frame payload truncated: %w", err)
	}
	if !nativeLE {
		getPayloadWords(env, p)
	}
	return h, env, nil, nil
}
