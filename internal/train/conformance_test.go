package train

import (
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/nn"
	"distgnn/internal/quant"
)

// snapshotParams flattens a rank's parameter values (not gradients).
func snapshotParams(r *rankCtx) []float32 {
	params := r.model.Params()
	buf := make([]float32, nn.TotalElements(params))
	nn.FlattenParamsInto(buf, params, false)
	return buf
}

// fleetTrace records a fleet run epoch by epoch: every rank's epoch stats
// and parameter snapshots, and the final accuracies.
type fleetTrace struct {
	stats             [][]DistEpochStat // [rank][epoch]
	params            [][][]float32     // [rank][epoch]
	trainAcc, testAcc float64
}

// traceFleet drives one rank per endpoint through every epoch and the
// evaluation exactly as DistributedFleet does, recording as it goes.
func traceFleet(t *testing.T, ds *datasets.Dataset, cfg DistConfig, eps []comm.Transport) *fleetTrace {
	t.Helper()
	su, err := newDistSetup(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	worlds, ranks, err := su.newRanks(eps)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ranks)
	tr := &fleetTrace{stats: make([][]DistEpochStat, n), params: make([][][]float32, n)}
	comm.RunRanks(worlds, func(w *comm.World) {
		rank := w.Self()
		r := ranks[rank]
		for e := 0; e < cfg.Epochs; e++ {
			tr.stats[rank] = append(tr.stats[rank], r.runEpoch(e))
			tr.params[rank] = append(tr.params[rank], snapshotParams(r))
		}
		trainAcc, testAcc := r.evaluate()
		if rank == 0 {
			tr.trainAcc, tr.testAcc = trainAcc, testAcc
		}
	})
	return tr
}

// traceInProcess is traceFleet over a fresh in-process fabric.
func traceInProcess(t *testing.T, ds *datasets.Dataset, cfg DistConfig) *fleetTrace {
	t.Helper()
	eps := comm.NewProcFabric(cfg.NumPartitions)
	defer comm.CloseAll(eps)
	return traceFleet(t, ds, cfg, eps)
}

// TestCDRSConformsToCDR is the cd-rs conformance harness: the overlapped
// algorithm must produce bit-identical parameters to cd-r at every epoch
// for the same seed — overlap is a scheduling and accounting change, never
// an arithmetic one. Checked across 2/4/8 simulated sockets, with overlap
// both live and artificially forced to complete synchronously, in fp32 and
// through the bf16 packed wire path.
func TestCDRSConformsToCDR(t *testing.T) {
	ds := testDataset(t)
	const epochs, delay = 7, 2
	for _, tc := range []struct {
		sockets   int
		forceSync bool
		prec      quant.Precision
	}{
		{2, false, quant.FP32},
		{4, false, quant.FP32},
		{8, false, quant.FP32},
		{2, true, quant.FP32},
		{4, true, quant.FP32},
		{8, true, quant.FP32},
		{4, false, quant.BF16},
		{4, true, quant.FP16},
	} {
		base := DistConfig{
			Model: smallModel(), NumPartitions: tc.sockets,
			Delay: delay, Epochs: epochs, LR: 0.05, UseAdam: true, Seed: 9,
			CommPrecision: tc.prec,
		}
		refCfg := base
		refCfg.Algo = AlgoCDR
		ref := traceInProcess(t, ds, refCfg)
		ovlCfg := base
		ovlCfg.Algo = AlgoCDRS
		ovlCfg.ForceSyncOverlap = tc.forceSync
		ovl := traceInProcess(t, ds, ovlCfg)

		for e := 0; e < epochs; e++ {
			refStat, ovlStat := ref.stats[0][e], ovl.stats[0][e]
			if refStat.Loss != ovlStat.Loss {
				t.Fatalf("k=%d force=%v %v epoch %d: loss %v (cd-r) vs %v (cd-rs)",
					tc.sockets, tc.forceSync, tc.prec, e, refStat.Loss, ovlStat.Loss)
			}
			for rank := 0; rank < tc.sockets; rank++ {
				a := ref.params[rank][e]
				b := ovl.params[rank][e]
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("k=%d force=%v %v epoch %d rank %d: param[%d] %v (cd-r) vs %v (cd-rs)",
							tc.sockets, tc.forceSync, tc.prec, e, rank, i, a[i], b[i])
					}
				}
			}
		}
		if ref.trainAcc != ovl.trainAcc || ref.testAcc != ovl.testAcc {
			t.Fatalf("k=%d force=%v %v: eval %v/%v (cd-r) vs %v/%v (cd-rs)",
				tc.sockets, tc.forceSync, tc.prec, ref.trainAcc, ref.testAcc, ovl.trainAcc, ovl.testAcc)
		}
	}
}

// TestStatewiseDriverMatchesDistributed pins the relation the harnesses
// rely on: driving the ranks epoch by epoch is observationally identical
// to the packaged Distributed loop, so the conformance tests really
// exercise the production path.
func TestStatewiseDriverMatchesDistributed(t *testing.T) {
	ds := testDataset(t)
	cfg := DistConfig{
		Model: smallModel(), NumPartitions: 4, Algo: AlgoCDRS, Delay: 2,
		Epochs: 5, LR: 0.05, UseAdam: true, Seed: 9,
	}
	packaged, err := Distributed(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traceInProcess(t, ds, cfg)
	for e := 0; e < cfg.Epochs; e++ {
		for rank := range tr.stats {
			if st := tr.stats[rank][e]; st != packaged.Epochs[e] {
				t.Fatalf("epoch %d rank %d: driver stat %+v vs Distributed %+v", e, rank, st, packaged.Epochs[e])
			}
		}
	}
	if tr.testAcc != packaged.TestAcc {
		t.Fatalf("driver acc %v vs Distributed %v", tr.testAcc, packaged.TestAcc)
	}
}

// TestCDRSHidesNetworkBehindCompute is the §6.3 headline: at equal delay,
// cd-rs's simulated epoch time must fall strictly below cd-r's, because the
// α+bytes/β term rides under compute instead of blocking the epoch
// boundary. Forcing the overlap synchronous must give the hiding back.
func TestCDRSHidesNetworkBehindCompute(t *testing.T) {
	ds := testDataset(t)
	run := func(algo Algorithm, force bool) *DistResult {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: algo, Delay: 3,
			Epochs: 10, LR: 0.05, Seed: 2, ForceSyncOverlap: force,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cdr := run(AlgoCDR, false)
	cdrs := run(AlgoCDRS, false)
	forced := run(AlgoCDRS, true)

	lo, hi := 6, 10 // steady state: delay pipeline full
	et := func(r *DistResult) float64 { return r.AvgEpochSeconds(lo, hi) }
	if !(et(cdrs) < et(cdr)) {
		t.Fatalf("cd-rs epoch %v must be strictly below cd-r %v at equal delay",
			et(cdrs), et(cdr))
	}
	for e := lo; e < hi; e++ {
		if cdrs.Epochs[e].ExposedNet != 0 {
			t.Fatalf("epoch %d: compute window dwarfs the transfers, exposed %v",
				e, cdrs.Epochs[e].ExposedNet)
		}
		if forced.Epochs[e].ExposedNet <= 0 {
			t.Fatalf("epoch %d: forced-sync cd-rs must expose network time", e)
		}
	}
	if !(et(forced) > et(cdrs)) {
		t.Fatalf("forced-sync cd-rs %v must cost more than overlapped %v",
			et(forced), et(cdrs))
	}
	// Both deliver the same math: identical losses throughout.
	for e := range cdr.Epochs {
		if cdr.Epochs[e].Loss != cdrs.Epochs[e].Loss {
			t.Fatalf("epoch %d: cd-r loss %v vs cd-rs %v", e, cdr.Epochs[e].Loss, cdrs.Epochs[e].Loss)
		}
	}
}
