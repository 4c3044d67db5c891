package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"distgnn/internal/quant"
)

// cdrDigest hashes everything cd-r's arithmetic and compute accounting
// produce: rank 0's per-epoch loss, LAT, BwdAgg, MLP and ParamSync, every
// rank's final parameters, and the final accuracies. RAT and Epoch are
// left out: they carry the network term, which depends on how many
// messages the exchange puts on the wire.
func cdrDigest(tr *fleetTrace) string {
	h := sha256.New()
	var b [8]byte
	put64 := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, st := range tr.stats[0] {
		for _, v := range [...]float64{st.Loss, st.LAT, st.BwdAgg, st.MLP, st.ParamSync} {
			put64(v)
		}
	}
	for _, epochs := range tr.params {
		for _, v := range epochs[len(epochs)-1] {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	put64(tr.trainAcc)
	put64(tr.testAcc)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCDRGolden pins cd-r's losses, compute phases, parameters and
// accuracies to digests recorded before cd-r was routed through cd-rs's
// per-layer exchange, in the configurations TestCDRSConformsToCDR runs.
// Any change to cd-r's float order or to what its captures carry moves a
// digest; a change to how its network time is charged does not.
func TestCDRGolden(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		sockets int
		prec    quant.Precision
		digest  string
	}{
		{2, quant.FP32, "6efcde21cea745a7"},
		{4, quant.FP32, "8e9dce30c3e728e4"},
		{8, quant.FP32, "d610d276c3fb0ee0"},
		{4, quant.BF16, "582e9e88b100b3ca"},
		{4, quant.FP16, "2f084403fb184887"},
	} {
		tr := traceInProcess(t, ds, DistConfig{
			Model: smallModel(), NumPartitions: tc.sockets, Algo: AlgoCDR,
			Delay: 2, Epochs: 7, LR: 0.05, UseAdam: true, Seed: 9,
			CommPrecision: tc.prec,
		})
		if got := cdrDigest(tr); got != tc.digest {
			t.Errorf("k=%d %v: cd-r digest %s, want %s", tc.sockets, tc.prec, got, tc.digest)
		}
	}
}
