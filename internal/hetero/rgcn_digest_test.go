package hetero

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"distgnn/internal/nn"
)

// TestRGCNTrainingDigest pins R-GCN's arithmetic end to end: the per-epoch
// losses, the final parameters and the final evaluation logits of a short
// Adam run on am-sim, hashed bit for bit. The digest was recorded when the
// forward rectifier was the branch `if v < 0 { y = 0 }`; tensor.ReLU
// differs from it only on −0 and NaN, which finite training never feeds
// it (every pre-activation is a sum that starts at +0), so the digest
// must not move.
func TestRGCNTrainingDigest(t *testing.T) {
	ds, tg, err := SyntheticAM(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRGCN(tg, RGCNConfig{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: ds.NumClasses,
		NumLayers: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	put32 := func(vs []float32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	adam := nn.NewAdam(0.02, 5e-4)
	params := m.Params()
	for e := 0; e < 8; e++ {
		logits := m.Forward(ds.Features, true)
		loss, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(loss))
		h.Write(b[:])
		nn.ZeroGrads(params)
		m.Backward(dlogits)
		adam.Step(params)
	}
	for _, p := range params {
		put32(p.W.Data)
	}
	put32(m.Forward(ds.Features, false).Data)
	const want = "c7369666227f7f88"
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want {
		t.Fatalf("R-GCN training digest %s, want %s", got, want)
	}
}
