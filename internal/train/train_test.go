package train

import (
	"math"
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/partition"
)

// testDataset is a small planted-community graph that GraphSAGE learns
// quickly, shared across trainer tests.
func testDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	d, err := datasets.Generate(datasets.Spec{
		Name: "train-test", NumVertices: 600, AvgDegree: 12,
		FeatDim: 16, NumClasses: 4, Communities: 4, IntraFrac: 0.85,
		Undirected: true, FeatureNoise: 0.8, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallModel() model.Config {
	return model.Config{Hidden: 16, NumLayers: 2, Seed: 5}
}

func TestSingleSocketLearns(t *testing.T) {
	ds := testDataset(t)
	res, err := SingleSocket(ds, SingleConfig{
		Model: smallModel(), Epochs: 40, LR: 0.05, UseAdam: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first*0.7 {
		t.Fatalf("loss barely moved: %v → %v", first, last)
	}
	if res.TestAcc < 0.7 {
		t.Fatalf("test accuracy %v < 0.7", res.TestAcc)
	}
	if res.TrainAcc < res.TestAcc-0.3 {
		t.Fatalf("implausible accuracies train=%v test=%v", res.TrainAcc, res.TestAcc)
	}
	for _, e := range res.Epochs {
		if e.Total <= 0 || e.Agg <= 0 || e.Agg > e.Total {
			t.Fatalf("bad epoch timing: %+v", e)
		}
	}
}

func TestSingleSocketAvgEpochWindow(t *testing.T) {
	ds := testDataset(t)
	res, err := SingleSocket(ds, SingleConfig{Model: smallModel(), Epochs: 5, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	tot, agg := res.AvgEpoch(1, 5)
	if tot <= 0 || agg <= 0 {
		t.Fatal("window averages must be positive")
	}
	if tot2, _ := res.AvgEpoch(4, 99); tot2 <= 0 {
		t.Fatal("clamped window must still average")
	}
	if tot3, _ := res.AvgEpoch(7, 9); tot3 != 0 {
		t.Fatal("empty window must be zero")
	}
}

func TestSingleSocketRejectsBadConfig(t *testing.T) {
	ds := testDataset(t)
	if _, err := SingleSocket(ds, SingleConfig{Model: smallModel(), Epochs: 0}); err == nil {
		t.Fatal("expected error for zero epochs")
	}
}

func TestDistributedRejectsBadConfig(t *testing.T) {
	ds := testDataset(t)
	cases := []DistConfig{
		{Model: smallModel(), NumPartitions: 0, Algo: Algo0C, Epochs: 1, LR: 0.1},
		{Model: smallModel(), NumPartitions: 2, Algo: Algo0C, Epochs: 0, LR: 0.1},
		{Model: smallModel(), NumPartitions: 2, Algo: "bogus", Epochs: 1, LR: 0.1},
		{Model: smallModel(), NumPartitions: 2, Algo: AlgoCDR, Delay: 0, Epochs: 1, LR: 0.1},
		{Model: smallModel(), NumPartitions: 2, Algo: AlgoCDRS, Delay: 0, Epochs: 1, LR: 0.1},
	}
	for i, cfg := range cases {
		if _, err := Distributed(ds, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// cd-0 gives every vertex its complete neighborhood, so with identical
// initial weights the FIRST epoch's loss must match single-socket exactly
// (both compute the same global forward pass before any trajectories
// diverge).
func TestCD0FirstEpochLossMatchesSingleSocket(t *testing.T) {
	ds := testDataset(t)
	single, err := SingleSocket(ds, SingleConfig{Model: smallModel(), Epochs: 1, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		dist, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: k, Algo: AlgoCD0,
			Epochs: 1, LR: 0.1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(dist.Epochs[0].Loss - single.Epochs[0].Loss); d > 1e-3 {
			t.Fatalf("k=%d: cd-0 first-epoch loss %v vs single %v (diff %v)",
				k, dist.Epochs[0].Loss, single.Epochs[0].Loss, d)
		}
	}
}

func TestDistributedSinglePartitionMatchesSingleSocket(t *testing.T) {
	ds := testDataset(t)
	single, err := SingleSocket(ds, SingleConfig{Model: smallModel(), Epochs: 5, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Distributed(ds, DistConfig{
		Model: smallModel(), NumPartitions: 1, Algo: AlgoCD0, Epochs: 5, LR: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range dist.Epochs {
		if d := math.Abs(dist.Epochs[e].Loss - single.Epochs[e].Loss); d > 1e-3 {
			t.Fatalf("epoch %d: k=1 loss %v vs single %v", e, dist.Epochs[e].Loss, single.Epochs[e].Loss)
		}
	}
}

func TestAllAlgorithmsLearn(t *testing.T) {
	ds := testDataset(t)
	for _, tc := range []struct {
		algo  Algorithm
		delay int
	}{{Algo0C, 0}, {AlgoCD0, 0}, {AlgoCDR, 3}, {AlgoCDRS, 3}} {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: tc.algo, Delay: tc.delay,
			Epochs: 40, LR: 0.05, UseAdam: true, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.algo, err)
		}
		first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
		if last >= first*0.8 {
			t.Fatalf("%s: loss %v → %v did not improve", tc.algo, first, last)
		}
		if res.TestAcc < 0.6 {
			t.Fatalf("%s: test accuracy %v < 0.6", tc.algo, res.TestAcc)
		}
	}
}

func TestCDRAccuracyNearCD0(t *testing.T) {
	// Table 5's claim: delayed aggregation stays within ~1% of cd-0.
	// On this small task we allow a few points of slack.
	ds := testDataset(t)
	run := func(algo Algorithm, delay int) float64 {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: algo, Delay: delay,
			Epochs: 50, LR: 0.05, UseAdam: true, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.TestAcc
	}
	cd0 := run(AlgoCD0, 0)
	cdr := run(AlgoCDR, 5)
	if cdr < cd0-0.08 {
		t.Fatalf("cd-5 accuracy %v too far below cd-0 %v", cdr, cd0)
	}
}

func TestTimingShape(t *testing.T) {
	// §5.3: 0c is fastest (no communication), cd-0 slowest (synchronous
	// exchange); cd-r hides the network term so it lands between them.
	ds := testDataset(t)
	epochTime := func(algo Algorithm, delay int) (epoch, rat float64) {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 4, Algo: algo, Delay: delay,
			Epochs: 8, LR: 0.1, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		lo := 0
		if algo == AlgoCDR {
			lo = 2 * delay // steady state
		}
		_, ratAvg := res.AvgLATRAT(lo, 8)
		return res.AvgEpochSeconds(lo, 8), ratAvg
	}
	e0c, r0c := epochTime(Algo0C, 0)
	ecd0, rcd0 := epochTime(AlgoCD0, 0)
	ecdr, rcdr := epochTime(AlgoCDR, 2)
	if r0c != 0 {
		t.Fatalf("0c RAT must be zero, got %v", r0c)
	}
	if rcd0 <= rcdr {
		t.Fatalf("cd-0 RAT %v must exceed cd-r RAT %v", rcd0, rcdr)
	}
	if rcdr <= 0 {
		t.Fatalf("cd-r RAT must be positive (pre/post processing), got %v", rcdr)
	}
	if !(e0c < ecdr && ecdr < ecd0) {
		t.Fatalf("epoch times must order 0c < cd-r < cd-0: %v, %v, %v", e0c, ecdr, ecd0)
	}
}

func TestDistributedDeterministic(t *testing.T) {
	ds := testDataset(t)
	run := func() *DistResult {
		res, err := Distributed(ds, DistConfig{
			Model: smallModel(), NumPartitions: 3, Algo: AlgoCDR, Delay: 2,
			Epochs: 6, LR: 0.1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for e := range a.Epochs {
		if a.Epochs[e].Loss != b.Epochs[e].Loss {
			t.Fatalf("epoch %d losses differ: %v vs %v", e, a.Epochs[e].Loss, b.Epochs[e].Loss)
		}
	}
	if a.TestAcc != b.TestAcc {
		t.Fatalf("test accuracies differ: %v vs %v", a.TestAcc, b.TestAcc)
	}
}

func TestDistResultMetadata(t *testing.T) {
	ds := testDataset(t)
	res, err := Distributed(ds, DistConfig{
		Model: smallModel(), NumPartitions: 4, Algo: Algo0C, Epochs: 2, LR: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replication < 1 || res.Replication > 4 {
		t.Fatalf("replication %v out of range", res.Replication)
	}
	if len(res.SplitFrac) != 4 {
		t.Fatalf("split fractions %v", res.SplitFrac)
	}
	if res.EdgeBalance < 1 {
		t.Fatalf("edge balance %v", res.EdgeBalance)
	}
	if res.NumParams <= 0 {
		t.Fatal("NumParams missing")
	}
}

// buildRanks builds every rank of cfg over a fresh in-process fabric
// without training.
func buildRanks(t *testing.T, ds *datasets.Dataset, cfg DistConfig) []*rankCtx {
	t.Helper()
	su, err := newDistSetup(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eps := comm.NewProcFabric(cfg.NumPartitions)
	t.Cleanup(func() { comm.CloseAll(eps) })
	_, ranks, err := su.newRanks(eps)
	if err != nil {
		t.Fatal(err)
	}
	return ranks
}

// White-box: owned vertex masks must partition the global train/test sets.
func TestOwnershipPartitionsVertices(t *testing.T) {
	ds := testDataset(t)
	cfg := DistConfig{Model: smallModel(), NumPartitions: 4, Algo: AlgoCD0,
		Epochs: 1, LR: 0.1, Seed: 3}
	cfg.Partitioner = partition.Libra{Seed: 3}
	cfg.Compute.AggElemsPerSec = 1
	cfg.Compute.MACsPerSec = 1
	ranks := buildRanks(t, ds, cfg)
	seen := map[int32]int{}
	ownedTotal := 0
	for _, r := range ranks {
		ownedTotal += len(r.ownedTrain)
		for _, local := range r.ownedTrain {
			seen[r.part.GlobalID[local]]++
		}
	}
	if ownedTotal != len(ds.TrainIdx) {
		t.Fatalf("owned train total %d != %d", ownedTotal, len(ds.TrainIdx))
	}
	for g, c := range seen {
		if c != 1 {
			t.Fatalf("train vertex %d owned %d times", g, c)
		}
	}
}

func TestCDRDelayBinsPartitionSplits(t *testing.T) {
	ds := testDataset(t)
	pt, err := partition.Partition(ds.G, partition.Libra{Seed: 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bins := 5
	plans := buildXPlans(pt, bins)
	// Each (split vertex, leaf clone) pair must appear in exactly one bin.
	total := 0
	for _, p := range plans {
		for b := 0; b < bins; b++ {
			for _, rows := range p.leafSend[b] {
				total += len(rows)
			}
		}
	}
	want := 0
	for _, sv := range pt.Splits {
		want += len(sv.Clones) - 1
	}
	if total != want {
		t.Fatalf("leaf-send rows across bins %d != expected %d", total, want)
	}
}
