package train

import (
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/partition"
)

// buildRanksForTiming constructs rank contexts without training.
func buildRanksForTiming(t *testing.T, k int, algo Algorithm) (*DistConfig, []*rankCtx) {
	t.Helper()
	cfg := DistConfig{
		Model: smallModel(), NumPartitions: k, Algo: algo,
		Epochs: 1, LR: 0.1, Seed: 3,
		Compute:     comm.ComputeModel{AggElemsPerSec: 1e9, MACsPerSec: 1e10},
		Net:         comm.DefaultCostModel(k),
		Partitioner: partition.Libra{Seed: 3},
	}
	if algo == AlgoCDR || algo == AlgoCDRS {
		cfg.Delay = 2
	}
	ranks := buildRanks(t, testDataset(t), cfg)
	return ranks[0].cfg, ranks
}

// foldRanks folds the ranks' current counters into an epoch stat.
func foldRanks(cfg *DistConfig, ranks []*rankCtx) DistEpochStat {
	reps := make([]rankEpoch, len(ranks))
	for i, r := range ranks {
		reps[i] = r.report(0)
	}
	st, _ := foldEpoch(cfg, ranks[0].model.NumParams(), 0, reps)
	return st
}

// TestFoldEpochMaxesPhasesAndSumsLoss pins the cross-rank reduction on
// hand-built reports: each phase is the slowest rank's, the loss is the
// rank-order sum over the global train count, and the returned clock is
// the slowest rank's.
func TestFoldEpochMaxesPhasesAndSumsLoss(t *testing.T) {
	cfg := &DistConfig{NumPartitions: 3, Net: comm.DefaultCostModel(3)}
	reps := []rankEpoch{
		{lat: 1, bwd: 6, mlp: 2, rat: 0, exposed: 0.5, lossPart: 3, clock: 40},
		{lat: 4, bwd: 1, mlp: 2, rat: 7, exposed: 0, lossPart: 5, clock: 90},
		{lat: 2, bwd: 3, mlp: 8, rat: 1, exposed: 0.25, lossPart: 4, clock: 10},
	}
	st, clock := foldEpoch(cfg, 100, 6, reps)
	ps := paramSyncSeconds(cfg, 100)
	want := DistEpochStat{Loss: 12.0 / 6, LAT: 4, BwdAgg: 6, MLP: 8, RAT: 7,
		ExposedNet: 0.5, ParamSync: ps, Epoch: 4 + 6 + 8 + 7 + ps}
	if st != want {
		t.Fatalf("fold = %+v, want %+v", st, want)
	}
	if clock != 90 {
		t.Fatalf("clock %v, want the slowest rank's 90", clock)
	}
	// The wire form round-trips every field bit for bit.
	for _, e := range reps {
		if got := rankEpochFrom(e.appendWords(nil)); got != e {
			t.Fatalf("report %+v round-tripped as %+v", e, got)
		}
	}
}

func TestAggWorkCountsEdgesTimesWidths(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 2, Algo0C)
	for _, r := range ranks {
		want := int64(r.part.G.NumEdges) * int64(cfg.Model.InDim+cfg.Model.Hidden)
		if got := r.aggWorkElems(); got != want {
			t.Fatalf("rank %d agg work %d, want %d", r.id, got, want)
		}
	}
}

func TestMLPWorkCountsMACs(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 2, Algo0C)
	for _, r := range ranks {
		n := int64(r.part.NumLocal())
		fwd := n*int64(cfg.Model.InDim)*int64(cfg.Model.Hidden) +
			n*int64(cfg.Model.Hidden)*int64(cfg.Model.OutDim)
		if got := r.mlpWorkMACs(); got != 3*fwd {
			t.Fatalf("rank %d MLP work %d, want %d", r.id, got, 3*fwd)
		}
	}
}

func TestTimeEpochUsesSlowestRank(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 4, Algo0C)
	st := foldRanks(cfg, ranks)
	var maxLat float64
	for _, r := range ranks {
		lat := cfg.Compute.AggSeconds(r.aggWorkElems())
		if lat > maxLat {
			maxLat = lat
		}
	}
	if st.LAT != maxLat {
		t.Fatalf("LAT %v != slowest rank %v", st.LAT, maxLat)
	}
	if st.RAT != 0 {
		t.Fatalf("0c RAT must be 0, got %v", st.RAT)
	}
	if st.ParamSync <= 0 {
		t.Fatal("multi-rank param sync must cost time")
	}
	if st.Epoch < st.LAT+st.BwdAgg+st.MLP {
		t.Fatal("epoch must include all compute phases")
	}
}

func TestTimeEpochSingleRankNoParamSync(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 1, Algo0C)
	st := foldRanks(cfg, ranks)
	if st.ParamSync != 0 {
		t.Fatalf("k=1 param sync must be free, got %v", st.ParamSync)
	}
}

func TestBlockingNetworkExposedInRAT(t *testing.T) {
	// The blocking algorithms (cd-0, cd-r) expose their full network term;
	// cd-rs pays only what its Waits recorded as un-hidden.
	for _, algo := range []Algorithm{AlgoCD0, AlgoCDR} {
		cfg, ranks := buildRanksForTiming(t, 2, algo)
		// Simulate counters as if an exchange happened.
		ranks[0].gatherBytes = 1 << 20
		ranks[0].netBytes = 1 << 20
		ranks[0].netMsgs = 4
		st := foldRanks(cfg, ranks)
		want := float64(1<<20)/cfg.Net.MemBandwidth +
			4*cfg.Net.NetLatency + float64(1<<20)/cfg.Net.NetBandwidth
		if st.RAT != want {
			t.Fatalf("%s RAT %v must expose the full network term (%v)", algo, st.RAT, want)
		}
	}

	// Same counters under cd-rs with everything hidden: only gather shows.
	cfgS, ranksS := buildRanksForTiming(t, 2, AlgoCDRS)
	ranksS[0].gatherBytes = 1 << 20
	ranksS[0].netBytes = 1 << 20
	ranksS[0].netMsgs = 4
	stS := foldRanks(cfgS, ranksS)
	wantGather := float64(1<<20) / cfgS.Net.MemBandwidth
	if stS.RAT != wantGather {
		t.Fatalf("fully hidden cd-rs RAT %v must be pre/post only (%v)", stS.RAT, wantGather)
	}
	if stS.ExposedNet != 0 {
		t.Fatalf("fully hidden cd-rs ExposedNet must be 0, got %v", stS.ExposedNet)
	}

	// With an un-hidden remainder recorded, cd-rs RAT carries exactly it.
	ranksS[0].exposedNet = 1e-3
	stS = foldRanks(cfgS, ranksS)
	if stS.RAT != wantGather+1e-3 {
		t.Fatalf("cd-rs RAT %v must be gather + exposed remainder (%v)", stS.RAT, wantGather+1e-3)
	}
	if stS.ExposedNet != 1e-3 {
		t.Fatalf("cd-rs ExposedNet %v must surface the remainder", stS.ExposedNet)
	}
}
