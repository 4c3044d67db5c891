package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"distgnn/internal/comm"
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
// accuracies, in the configurations TestCDRSConformsToCDR runs. Any change
// to cd-r's float order, to what its captures carry or to its compute
// charges moves a digest; a change to how its network time is charged
// does not.
func TestCDRGolden(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		sockets int
		prec    quant.Precision
		digest  string
	}{
		{2, quant.FP32, "8214e409633c7d93"},
		{4, quant.FP32, "4c4cbbf407cd9dea"},
		{8, quant.FP32, "2a7da0e2256dcd6b"},
		{4, quant.BF16, "75a577d53d2be53a"},
		{4, quant.FP16, "205ff10be0bbd803"},
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

// timingDigest hashes every field of rank 0's DistEpochStat at every
// epoch of res.
func timingDigest(h hash.Hash, res *DistResult) {
	var b [8]byte
	for _, st := range res.Epochs {
		for _, v := range [...]float64{st.Loss, st.LAT, st.RAT, st.BwdAgg, st.MLP,
			st.ParamSync, st.Epoch, st.ExposedNet} {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// timingModels are the compute models the timing golden runs under: the
// paper's socket, one slow enough to hide every transfer, one fast enough
// to hide none, and two that hide part of the traffic.
var timingModels = []comm.ComputeModel{
	comm.DefaultComputeModel(),
	{AggElemsPerSec: 1e3, MACsPerSec: 1e3},
	{AggElemsPerSec: 1e30, MACsPerSec: 1e30},
	{AggElemsPerSec: 1e11, MACsPerSec: 1e12},
	{AggElemsPerSec: 1e12, MACsPerSec: 1e13},
}

// TestDistTimingGolden pins every DistEpochStat field of cd-r and cd-rs,
// at Delay 1, 2 and 3 under each of timingModels. It also checks that the two partial models really do hide
// part of the traffic at k=2 fp32 Delay 1, so the golden covers a wait
// that is neither free nor fully exposed.
func TestDistTimingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("180 distributed runs")
	}
	ds := testDataset(t)
	for _, tc := range []struct {
		algo    Algorithm
		sockets int
		prec    quant.Precision
		digest  string
	}{
		{AlgoCDR, 2, quant.FP32, "bc12dc14cf4d64a5"},
		{AlgoCDR, 4, quant.FP32, "90915c175a525ffd"},
		{AlgoCDR, 8, quant.FP32, "4e2524ef74878ed8"},
		{AlgoCDR, 2, quant.BF16, "ec87b989eb5c9d6d"},
		{AlgoCDR, 4, quant.BF16, "3129ba9c981a73ee"},
		{AlgoCDR, 8, quant.BF16, "80455f69c8dbd5f0"},
		{AlgoCDRS, 2, quant.FP32, "836b674417a050f4"},
		{AlgoCDRS, 4, quant.FP32, "302a4b273d99b24c"},
		{AlgoCDRS, 8, quant.FP32, "a57d712f5135d769"},
		{AlgoCDRS, 2, quant.BF16, "f3f7f6feabf127b9"},
		{AlgoCDRS, 4, quant.BF16, "bd243a75d0c491c2"},
		{AlgoCDRS, 8, quant.BF16, "5ba61d720d52fab1"},
	} {
		h := sha256.New()
		for delay := 1; delay <= 3; delay++ {
			exposed := make([]float64, len(timingModels))
			for m, cm := range timingModels {
				res, err := Distributed(ds, DistConfig{
					Model: smallModel(), NumPartitions: tc.sockets, Algo: tc.algo,
					Delay: delay, Epochs: 8, LR: 0.05, UseAdam: true, Seed: 9,
					CommPrecision: tc.prec, Compute: cm,
				})
				if err != nil {
					t.Fatal(err)
				}
				timingDigest(h, res)
				for _, st := range res.Epochs {
					exposed[m] += st.ExposedNet
				}
			}
			if tc.algo == AlgoCDRS && tc.sockets == 2 && tc.prec == quant.FP32 && delay == 1 {
				none := exposed[2]
				for _, m := range []int{3, 4} {
					if !(exposed[1] == 0 && exposed[m] > 0 && exposed[m] < none) {
						t.Errorf("model %d exposed %v, want strictly inside (0, %v)", m, exposed[m], none)
					}
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.digest {
			t.Errorf("%s k=%d %v: timing digest %s, want %s", tc.algo, tc.sockets, tc.prec, got, tc.digest)
		}
	}
}
