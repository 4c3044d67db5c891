package train

import (
	"math"
	"testing"

	"distgnn/internal/quant"
)

func TestBF16CommAccuracyNearFP32(t *testing.T) {
	ds := testDataset(t)
	run := func(p quant.Precision) *DistResult {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: AlgoCD0,
			Epochs: 40, LR: 0.05, UseAdam: true, Seed: 2, CommPrecision: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fp32 := run(quant.FP32)
	bf16 := run(quant.BF16)
	fp16 := run(quant.FP16)
	if math.Abs(bf16.TestAcc-fp32.TestAcc) > 0.05 {
		t.Fatalf("bf16 accuracy %v too far from fp32 %v", bf16.TestAcc, fp32.TestAcc)
	}
	if math.Abs(fp16.TestAcc-fp32.TestAcc) > 0.05 {
		t.Fatalf("fp16 accuracy %v too far from fp32 %v", fp16.TestAcc, fp32.TestAcc)
	}
}

func TestLowPrecisionHalvesExposedNetworkTime(t *testing.T) {
	ds := testDataset(t)
	rat := func(p quant.Precision) float64 {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: AlgoCD0,
			Epochs: 3, LR: 0.05, Seed: 2, CommPrecision: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, r := res.AvgLATRAT(0, 3)
		return r
	}
	full := rat(quant.FP32)
	half := rat(quant.BF16)
	if half >= full {
		t.Fatalf("bf16 RAT %v not below fp32 RAT %v", half, full)
	}
	// The bandwidth term halves; latency and gather/scatter terms do not,
	// so the ratio lands strictly between 0.5 and 1.
	if half < 0.4*full {
		t.Fatalf("bf16 RAT %v implausibly below half of fp32 %v", half, full)
	}
}

func TestLowPrecisionRoundingActuallyApplied(t *testing.T) {
	// bf16-trained losses must differ from fp32-trained losses (the wire
	// rounding is real, not just an accounting change).
	ds := testDataset(t)
	run := func(p quant.Precision) float64 {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: AlgoCD0,
			Epochs: 3, LR: 0.05, Seed: 2, CommPrecision: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Epochs[2].Loss
	}
	if run(quant.FP32) == run(quant.BF16) {
		t.Fatal("bf16 rounding had no effect on training trajectory")
	}
}
