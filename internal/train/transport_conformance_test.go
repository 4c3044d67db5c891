package train

import (
	"slices"
	"sync"
	"testing"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/quant"
)

// transport_conformance_test.go extends the conformance harness across
// comm substrates: the same trainer config driven over in-process
// endpoints and over loopback TCP endpoints — each rank its own rankCtx,
// exactly the state a separate OS process would build — must produce
// bit-identical parameters, losses and simulated timings at every epoch.
// In-process conformance (conformance_test.go) pins cd-rs ≡ cd-r; this
// file pins {cd-r, cd-rs} × {in-process, TCP}.

// tcpTrace is traceFleet over a fresh loopback TCP fabric.
func tcpTrace(t *testing.T, ds *datasets.Dataset, cfg DistConfig) *fleetTrace {
	t.Helper()
	eps, err := comm.NewLoopbackTCP(cfg.NumPartitions, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer comm.CloseAll(eps)
	return traceFleet(t, ds, cfg, eps)
}

// TestTransportConformance: cd-r and cd-rs at 2 and 4 ranks, fp32 and the
// packed 16-bit wire, train bit-identical parameters and report identical
// DistEpochStats — losses and every simulated phase time — over loopback
// TCP and the in-process fabric. The transport is a substrate change,
// never an arithmetic or accounting one.
func TestTransportConformance(t *testing.T) {
	ds := testDataset(t)
	const epochs, delay = 5, 2
	for _, tc := range []struct {
		sockets int
		algo    Algorithm
		prec    quant.Precision
	}{
		{2, AlgoCDR, quant.FP32},
		{4, AlgoCDR, quant.FP32},
		{2, AlgoCDRS, quant.FP32},
		{4, AlgoCDRS, quant.FP32},
		{2, AlgoCDR, quant.BF16},
		{4, AlgoCDR, quant.BF16},
		{2, AlgoCDRS, quant.BF16},
		{4, AlgoCDRS, quant.FP16},
	} {
		cfg := DistConfig{
			Model: smallModel(), NumPartitions: tc.sockets, Algo: tc.algo,
			Delay: delay, Epochs: epochs, LR: 0.05, UseAdam: true, Seed: 9,
			CommPrecision: tc.prec,
		}
		ref := traceInProcess(t, ds, cfg)
		tcp := tcpTrace(t, ds, cfg)
		for rank := 0; rank < tc.sockets; rank++ {
			for e := 0; e < epochs; e++ {
				if a, b := ref.stats[rank][e], tcp.stats[rank][e]; a != b {
					t.Fatalf("k=%d %s %v rank %d epoch %d: stat %+v (in-process) vs %+v (tcp)",
						tc.sockets, tc.algo, tc.prec, rank, e, a, b)
				}
				a, b := ref.params[rank][e], tcp.params[rank][e]
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("k=%d %s %v rank %d epoch %d: param[%d] %v (in-process) vs %v (tcp)",
							tc.sockets, tc.algo, tc.prec, rank, e, i, a[i], b[i])
					}
				}
			}
		}
		if ref.trainAcc != tcp.trainAcc || ref.testAcc != tcp.testAcc {
			t.Fatalf("k=%d %s %v: acc %v/%v (in-process) vs %v/%v (tcp)",
				tc.sockets, tc.algo, tc.prec, ref.trainAcc, ref.testAcc, tcp.trainAcc, tcp.testAcc)
		}
	}
}

// TestDistributedOverTCPEndpoint: the packaged Distributed loop accepts a
// transport endpoint and trains the rank — the production entry point
// cmd/distgnn-train uses in -transport tcp mode — and its results match
// the fully in-process loop.
func TestDistributedOverTCPEndpoint(t *testing.T) {
	ds := testDataset(t)
	base := DistConfig{
		Model: smallModel(), NumPartitions: 2, Algo: AlgoCDRS, Delay: 2,
		Epochs: 4, LR: 0.05, UseAdam: true, Seed: 9,
	}
	ref, err := Distributed(ds, base)
	if err != nil {
		t.Fatal(err)
	}

	eps, err := comm.NewLoopbackTCP(2, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	results := make([]*DistResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := base
			cfg.Transport = eps[r]
			results[r], errs[r] = Distributed(ds, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, res := range results {
		for e := range ref.Epochs {
			if res.Epochs[e].Loss != ref.Epochs[e].Loss {
				t.Fatalf("rank %d epoch %d: loss %v vs in-process %v",
					r, e, res.Epochs[e].Loss, ref.Epochs[e].Loss)
			}
		}
		if res.TestAcc != ref.TestAcc || res.TrainAcc != ref.TrainAcc {
			t.Fatalf("rank %d: acc %v/%v vs in-process %v/%v",
				r, res.TrainAcc, res.TestAcc, ref.TrainAcc, ref.TestAcc)
		}
		if !slices.Equal(res.Params, ref.Params) {
			t.Fatalf("rank %d: final params differ from in-process", r)
		}
	}
}
