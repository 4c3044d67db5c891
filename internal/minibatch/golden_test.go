package minibatch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// bitsDigest is the SHA-256 of xs' float32 bit patterns, little-endian,
// cut to 16 hex digits.
func bitsDigest(xs []float32) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenCfg is the sampled-training run the digests below pin.
func goldenCfg(ranks int) DistConfig {
	return DistConfig{
		Config: Config{
			Hidden: 16, Fanouts: []int{6, 4},
			BatchSize: 48, Epochs: 3, LR: 0.05, UseAdam: true, Seed: 11,
		},
		NumRanks: ranks,
	}
}

// sampledGolden holds goldenCfg's final params digest per rank count.
var sampledGolden = []struct {
	ranks  int
	params string
}{
	{1, "4a1f8adb9acee836"},
	{2, "e9c7418c1b47fbf7"},
	{4, "3a55b83910090166"},
	{8, "db9322e271488361"},
}

// TestSampledTrainingGolden pins sampled training's final parameters to
// digests recorded from a fixed seed. The conformance tests compare runs
// that share one model; this pin is what catches a change to that model,
// its initialization or its float order. The digests hold for the AVX and
// the purego kernels and for any worker count. A deliberate change to the
// training bits must update them.
func TestSampledTrainingGolden(t *testing.T) {
	ds := testDS(t)
	for _, c := range sampledGolden {
		res, err := TrainSharded(ds, goldenCfg(c.ranks))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Params) != 340 {
			t.Fatalf("%d ranks: %d parameters, want 340", c.ranks, len(res.Params))
		}
		if got := bitsDigest(res.Params); got != c.params {
			t.Errorf("%d ranks: final params digest %s, want %s", c.ranks, got, c.params)
		}
	}
}
