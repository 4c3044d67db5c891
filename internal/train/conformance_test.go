package train

import (
	"fmt"
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

// fleetTrace records a fleet run epoch by epoch: every rank's epoch stats,
// parameter snapshots and counted wire traffic, and the final accuracies.
type fleetTrace struct {
	stats             [][]DistEpochStat // [rank][epoch]
	params            [][][]float32     // [rank][epoch]
	wire              [][]wireEpoch     // [rank][epoch]: netMsgs, netBytes
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
	tr := &fleetTrace{stats: make([][]DistEpochStat, n), params: make([][][]float32, n),
		wire: make([][]wireEpoch, n)}
	comm.RunRanks(worlds, func(w *comm.World) {
		rank := w.Self()
		r := ranks[rank]
		for e := 0; e < cfg.Epochs; e++ {
			tr.stats[rank] = append(tr.stats[rank], r.runEpoch(e))
			tr.params[rank] = append(tr.params[rank], snapshotParams(r))
			tr.wire[rank] = append(tr.wire[rank], wireEpoch{netMsgs: r.netMsgs, netBytes: r.netBytes})
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

// sameRun fails the test unless two fleet runs trained the same bits:
// every epoch's loss, every rank's parameters after every epoch, and the
// final accuracies.
func sameRun(t *testing.T, what string, a, b *fleetTrace) {
	t.Helper()
	for e := range a.stats[0] {
		if la, lb := a.stats[0][e].Loss, b.stats[0][e].Loss; la != lb {
			t.Fatalf("%s epoch %d: loss %v vs %v", what, e, la, lb)
		}
		for rank := range a.params {
			pa, pb := a.params[rank][e], b.params[rank][e]
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("%s epoch %d rank %d: param[%d] %v vs %v", what, e, rank, i, pa[i], pb[i])
				}
			}
		}
	}
	if a.trainAcc != b.trainAcc || a.testAcc != b.testAcc {
		t.Fatalf("%s: eval %v/%v vs %v/%v", what, a.trainAcc, a.testAcc, b.trainAcc, b.testAcc)
	}
}

// TestCDRSConformsToCDR is the cd-rs conformance harness: the overlapped
// algorithm must produce bit-identical parameters to cd-r at every epoch
// for the same seed — overlap is an accounting change, never an
// arithmetic one. Checked across 2/4/8 simulated sockets in fp32 and
// through the packed 16-bit wire path.
//
// Its second half pins that the compute model moves timing only: cd-rs
// runs once under a compute model that hides every transfer and once
// under one that hides none; both must train cd-r's bits, and the replay
// must expose no network time under the first and some under the second.
func TestCDRSConformsToCDR(t *testing.T) {
	ds := testDataset(t)
	const epochs, delay = 7, 2
	hideAll := comm.ComputeModel{AggElemsPerSec: 1e3, MACsPerSec: 1e3}
	hideNone := comm.ComputeModel{AggElemsPerSec: 1e30, MACsPerSec: 1e30}
	for _, tc := range []struct {
		sockets int
		prec    quant.Precision
	}{
		{2, quant.FP32},
		{4, quant.FP32},
		{8, quant.FP32},
		{4, quant.BF16},
		{4, quant.FP16},
	} {
		base := DistConfig{
			Model: smallModel(), NumPartitions: tc.sockets,
			Delay: delay, Epochs: epochs, LR: 0.05, UseAdam: true, Seed: 9,
			CommPrecision: tc.prec,
		}
		name := fmt.Sprintf("k=%d %v", tc.sockets, tc.prec)
		refCfg := base
		refCfg.Algo = AlgoCDR
		ref := traceInProcess(t, ds, refCfg)
		ovlCfg := base
		ovlCfg.Algo = AlgoCDRS
		sameRun(t, name+" cd-r vs cd-rs", ref, traceInProcess(t, ds, ovlCfg))

		ovlCfg.Compute = hideAll
		hidden := traceInProcess(t, ds, ovlCfg)
		sameRun(t, name+" cd-r vs cd-rs hiding every transfer", ref, hidden)
		ovlCfg.Compute = hideNone
		exposed := traceInProcess(t, ds, ovlCfg)
		sameRun(t, name+" cd-r vs cd-rs hiding no transfer", ref, exposed)

		var hiddenNet, exposedNet float64
		for e := 0; e < epochs; e++ {
			hiddenNet += hidden.stats[0][e].ExposedNet
			exposedNet += exposed.stats[0][e].ExposedNet
		}
		if hiddenNet != 0 || exposedNet <= 0 {
			t.Fatalf("%s: exposed network %v (slow compute) and %v (free compute), want 0 and > 0",
				name, hiddenNet, exposedNet)
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
// α+bytes/β term rides under compute instead of being charged in full.
// cd-r runs the same exchange with hiding left out of its charge. On this
// small graph the last layer's partials outlast the backward and dense
// work behind them, so cd-rs exposes part of the term, never all of it.
func TestCDRSHidesNetworkBehindCompute(t *testing.T) {
	ds := testDataset(t)
	run := func(algo Algorithm) *DistResult {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: algo, Delay: 3,
			Epochs: 10, LR: 0.05, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cdr := run(AlgoCDR)
	cdrs := run(AlgoCDRS)

	lo, hi := 6, 10 // steady state: delay pipeline full
	et := func(r *DistResult) float64 { return r.AvgEpochSeconds(lo, hi) }
	if !(et(cdrs) < et(cdr)) {
		t.Fatalf("cd-rs epoch %v must be strictly below cd-r %v at equal delay",
			et(cdrs), et(cdr))
	}
	_, ratR := cdr.AvgLATRAT(lo, hi)
	_, ratS := cdrs.AvgLATRAT(lo, hi)
	for e := lo; e < hi; e++ {
		// Both count the same pre/post processing, so cd-r's network term
		// is its RAT less cd-rs's RAT without the exposed part.
		netR := cdr.Epochs[e].RAT - (cdrs.Epochs[e].RAT - cdrs.Epochs[e].ExposedNet)
		if !(cdrs.Epochs[e].ExposedNet < netR) {
			t.Fatalf("epoch %d: cd-rs exposed %v, want below cd-r's network term %v",
				e, cdrs.Epochs[e].ExposedNet, netR)
		}
		if cdr.Epochs[e].ExposedNet != 0 {
			t.Fatalf("epoch %d: cd-r charges its network term in RAT, not as exposed overlap: %v",
				e, cdr.Epochs[e].ExposedNet)
		}
	}
	if !(ratR > ratS) {
		t.Fatalf("cd-r RAT %v must carry the network term cd-rs hides (%v)", ratR, ratS)
	}
	// Both deliver the same math: identical losses throughout.
	for e := range cdr.Epochs {
		if cdr.Epochs[e].Loss != cdrs.Epochs[e].Loss {
			t.Fatalf("epoch %d: cd-r loss %v vs cd-rs %v", e, cdr.Epochs[e].Loss, cdrs.Epochs[e].Loss)
		}
	}
}
