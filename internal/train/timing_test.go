package train

import (
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/partition"
	"distgnn/internal/quant"
)

// buildRanksForTiming constructs rank contexts without training.
func buildRanksForTiming(t *testing.T, k int, algo Algorithm) (*DistConfig, []*rankCtx) {
	t.Helper()
	cfg := DistConfig{
		Model: smallModel(), NumPartitions: k, Algo: algo,
		Epochs: 1, LR: 0.1, Seed: 3,
		Compute:     comm.ComputeModel{AggElemsPerSec: 1e9, MACsPerSec: 1e10},
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
	return foldEpoch(cfg, ranks[0].model.NumParams(), 0, reps)
}

// TestFoldEpochMaxesPhasesAndSumsLoss pins the cross-rank reduction on
// hand-built reports: each phase is the slowest rank's, the loss is the
// rank-order sum over the global train count, and ParamSync is a ring
// AllReduce of the parameters.
func TestFoldEpochMaxesPhasesAndSumsLoss(t *testing.T) {
	cfg := &DistConfig{NumPartitions: 3, Net: comm.DefaultCostModel()}
	reps := []rankEpoch{
		{lat: 1, bwd: 6, mlp: 2, rat: 0, exposed: 0.5, lossPart: 3},
		{lat: 4, bwd: 1, mlp: 2, rat: 7, exposed: 0, lossPart: 5},
		{lat: 2, bwd: 3, mlp: 8, rat: 1, exposed: 0.25, lossPart: 4},
	}
	st := foldEpoch(cfg, 100, 6, reps)
	ps := cfg.Net.AllReduceSeconds(400, 3)
	want := DistEpochStat{Loss: 12.0 / 6, LAT: 4, BwdAgg: 6, MLP: 8, RAT: 7,
		ExposedNet: 0.5, ParamSync: ps, Epoch: 4 + 6 + 8 + 7 + ps}
	if st != want {
		t.Fatalf("fold = %+v, want %+v", st, want)
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
		if got := aggWorkElems(r.part.G.NumEdges, r.aggDims); got != want {
			t.Fatalf("rank %d agg work %d, want %d", r.id, got, want)
		}
	}
}

func TestMLPWorkCountsMACs(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 2, Algo0C)
	for _, r := range ranks {
		n := int64(r.part.NumLocal())
		first := n * int64(cfg.Model.InDim) * int64(cfg.Model.Hidden)
		fwd := first + n*int64(cfg.Model.Hidden)*int64(cfg.Model.OutDim)
		// Forward, dW for both layers, dx for the second only.
		if got, want := mlpWorkMACs(r.part.NumLocal(), cfg.Model), 3*fwd-first; got != want {
			t.Fatalf("rank %d MLP work %d, want %d", r.id, got, want)
		}
	}
}

func TestTimeEpochUsesSlowestRank(t *testing.T) {
	cfg, ranks := buildRanksForTiming(t, 4, Algo0C)
	st := foldRanks(cfg, ranks)
	var maxLat, maxBwd float64
	for _, r := range ranks {
		maxLat = max(maxLat, cfg.Compute.AggSeconds(aggWorkElems(r.part.G.NumEdges, r.aggDims)))
		// Backward aggregates into every layer's input but layer 0's.
		maxBwd = max(maxBwd, cfg.Compute.AggSeconds(int64(r.part.G.NumEdges)*int64(cfg.Model.Hidden)))
	}
	if st.LAT != maxLat {
		t.Fatalf("LAT %v != slowest rank %v", st.LAT, maxLat)
	}
	if st.BwdAgg != maxBwd {
		t.Fatalf("BwdAgg %v != slowest rank's layer-1 reverse aggregation %v", st.BwdAgg, maxBwd)
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
	// cd-rs pays only what the replay found un-hidden.
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

// TestReplayClocksByHand runs the replay on a 2-rank exchange worked out
// by hand: one split vertex, root on rank 0 and leaf on rank 1, two layers
// of 250 and 125 fp32 words, Delay 1, α = 1 µs and β = 1 GB/s. So rank
// 1's partials take 2000 and 1500 ns on the wire and rank 0's total (375
// words) 2500 ns. Rank 1 charges 100 ns, then 500 ns per layer and 1000 ns
// after the forward; rank 0 100 ns per layer and 2900 ns after.
//
//	epoch 0: rank 1 posts at 100 (ready 2100) and 600; the second queues
//	         behind the first on the port (ready 3600, not 2100). Rank 0
//	         reaches 3100: the first partial is hidden, the second exposes
//	         500. Barrier at 3600.
//	epoch 1: partials ready 5700 and 7200; rank 0 reaches 6700, exposes
//	         500, then posts its total at 7200 (ready 9700). Barrier 7200.
//	epoch 2: partials ready 9300 and 10800, rank 0 exposes 500 again.
//	         Rank 1 reaches 8800 and waits for epoch 1's total: 900 late.
func TestReplayClocksByHand(t *testing.T) {
	cfg := &DistConfig{
		Epochs: 3, Delay: 1, CommPrecision: quant.FP32,
		Net: comm.CostModel{NetLatency: 1e-6, NetBandwidth: 1e9},
	}
	plans := []*xplan{{bins: 1}, {bins: 1}}
	for _, p := range plans {
		p.leafSend, p.rootRecv = makeBinPeer(1, 2), makeBinPeer(1, 2)
		p.rootSend, p.leafRecv = makeBinPeer(1, 2), makeBinPeer(1, 2)
	}
	plans[0].rootRecv[0][1] = []int32{0}
	plans[0].rootSend[0][1] = []int32{0}
	plans[1].leafSend[0][0] = []int32{0}
	plans[1].leafRecv[0][0] = []int32{0}

	got := replayClocks(cfg, plans, []int{250, 125},
		[][]int64{{100, 100}, {100, 500}}, []int64{2900, 1000})
	want := [][]wireEpoch{
		{{0, 0, 5e-7}, {1, 1500, 5e-7}, {1, 1500, 5e-7}},
		{{2, 1500, 0}, {2, 1500, 0}, {2, 1500, 9e-7}},
	}
	for p := range want {
		for e := range want[p] {
			if got[p][e] != want[p][e] {
				t.Errorf("rank %d epoch %d: %+v, want %+v", p, e, got[p][e], want[p][e])
			}
		}
	}
}

// TestReplayCountsTheExchange pins the replay to the traffic the exchange
// really sends: in every epoch, each rank's replayed message count and
// wire bytes equal the netMsgs and netBytes its posts counted.
func TestReplayCountsTheExchange(t *testing.T) {
	ds := testDataset(t)
	for _, k := range []int{2, 4, 8} {
		for _, prec := range []quant.Precision{quant.FP32, quant.BF16} {
			for delay := 1; delay <= 3; delay++ {
				cfg := DistConfig{
					Model: smallModel(), NumPartitions: k, Algo: AlgoCDR,
					Delay: delay, Epochs: 7, LR: 0.05, Seed: 9, CommPrecision: prec,
				}
				su, err := newDistSetup(ds, cfg)
				if err != nil {
					t.Fatal(err)
				}
				replay := su.replayOverlap()
				tr := traceInProcess(t, ds, cfg)
				for rank, epochs := range tr.wire {
					for e, counted := range epochs {
						r := replay[rank][e]
						if r.netMsgs != counted.netMsgs || r.netBytes != counted.netBytes {
							t.Fatalf("k=%d %v d=%d rank %d epoch %d: replay %d msgs %d B, counted %d msgs %d B",
								k, prec, delay, rank, e, r.netMsgs, r.netBytes, counted.netMsgs, counted.netBytes)
						}
					}
				}
			}
		}
	}
}
