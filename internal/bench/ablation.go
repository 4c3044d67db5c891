package bench

import (
	"fmt"
	"math/rand"

	"distgnn/internal/cachesim"
	"distgnn/internal/graph"

	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/partition"
	"distgnn/internal/quant"
	"distgnn/internal/train"
)

// Ablations lists the design-choice studies beyond the paper's artifacts:
// the DRPA delay sweep, the low-precision-communication extension (§7
// future work), partitioner choice, and aggregator/model generality.
func Ablations() []Experiment {
	return []Experiment{
		{"abl-delay", "Ablation: DRPA delay r vs accuracy and epoch time", AblationDelay},
		{"abl-overlap", "Ablation: nonblocking overlap (cd-rs) vs blocking exchange (cd-r)", AblationOverlap},
		{"abl-precision", "Ablation: communication precision (fp32/bf16/fp16)", AblationPrecision},
		{"abl-partitioner", "Ablation: partitioner choice vs replication and epoch time", AblationPartitioner},
		{"abl-model", "Ablation: GCN vs GIN vs GAT accuracy", AblationModel},
		{"abl-mb-dist", "Ablation: distributed mini-batch scaling (§7 future work)", AblationMiniBatchDist},
		{"abl-distmb", "Ablation: sharded-feature mini-batch — wall epoch and halo hit rate vs rank count", AblationDistMB},
		{"abl-reorder", "Ablation: vertex reordering vs AP cache reuse", AblationReorder},
		{"abl-workers", "Ablation: worker-pool size vs AP/matmul time (OMP_NUM_THREADS)", AblationWorkers},
		{"abl-transport", "Ablation: in-process vs TCP-loopback comm transport epoch time", AblationTransport},
		{"abl-kernels", "Ablation: aggregation kernel arms (gathered/fused) and wall-epoch trajectory", AblationKernels},
	}
}

// AblationReorder quantifies how vertex labeling drives the AP's cache
// behaviour: the generated ordering (community-contiguous), a random
// scramble (worst case), BFS relabeling, and hubs-first degree ordering,
// all replayed through the cache simulator at the Table 3 sweet-spot block
// count.
func AblationReorder(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	featBytes := ds.Features.Cols * 4
	cache := cacheBytesFor(ds)
	sim := func(g *graph.CSR) cachesim.APStats {
		return cachesim.SimulateAP(g, cachesim.APConfig{
			NumBlocks: 16, FeatureBytes: featBytes, CacheBytes: cache,
			ReorderedOutput: true,
		})
	}
	rng := rand.New(rand.NewSource(1))
	scramble := make(graph.Permutation, ds.G.NumVertices)
	for i, v := range rng.Perm(ds.G.NumVertices) {
		scramble[i] = int32(v)
	}
	scrambled := graph.ApplyPermutation(ds.G, scramble)

	t := &table{header: []string{"ordering", "reuse", "total IO MB"}}
	for _, arm := range []struct {
		name string
		g    *graph.CSR
	}{
		{"generated", ds.G},
		{"scrambled", scrambled},
		{"bfs", graph.ApplyPermutation(scrambled, graph.BFSOrder(scrambled))},
		{"degree", graph.ApplyPermutation(scrambled, graph.DegreeOrder(scrambled))},
	} {
		st := sim(arm.g)
		t.add(arm.name, f2(st.EffectiveReuse(featBytes)), f2(float64(st.TotalIO())/1e6))
	}
	t.write(opt.Out)
	return nil
}

// AblationMiniBatchDist scales the Dist-DGL-style distributed mini-batch
// trainer across ranks: sampled work per rank must shrink linearly while
// accuracy holds — the paper's §7 plan for mini-batch DistGNN.
func AblationMiniBatchDist(opt Options) error {
	ds, err := loadLowLabelProducts(opt)
	if err != nil {
		return err
	}
	epochs := opt.epochs(6)
	t := &table{header: []string{"#ranks", "steps/epoch", "sampled work/rank (M ops)",
		"test acc"}}
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := minibatch.TrainDistributed(ds, minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden:  fig5ModelFor("ogbn-products-sim").Hidden,
				Fanouts: table7Fanouts, BatchSize: table7Batch,
				Epochs: epochs, LR: 0.02, UseAdam: true, Seed: 1,
			},
			NumRanks: ranks,
		})
		if err != nil {
			return err
		}
		last := res.Epochs[len(res.Epochs)-1]
		perRank := float64(last.SampledWork) / float64(ranks) / 1e6
		t.add(fmt.Sprint(ranks), fmt.Sprint(last.Steps), f2(perRank), pct(res.TestAcc))
	}
	t.write(opt.Out)
	return nil
}

// AblationDelay sweeps the cd-r delay parameter against the cd-0 reference:
// larger r hides more communication but staler aggregates cost accuracy
// (the paper reports r=5 as the sweet spot, r=10 degrading).
func AblationDelay(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(60)
	t := &table{header: []string{"run", "test acc", "epoch (sim)", "RAT"}}
	run := func(algo train.Algorithm, delay int) (*train.DistResult, error) {
		cfg := train.DistConfig{
			Model:         fig5ModelFor("reddit-sim"),
			NumPartitions: 8, Algo: algo, Delay: delay,
			Epochs: epochs, LR: 0.02, UseAdam: true, Seed: 1,
		}
		return train.Distributed(ds, cfg)
	}
	ref, err := run(train.AlgoCD0, 0)
	if err != nil {
		return err
	}
	_, rat := ref.AvgLATRAT(1, epochs)
	t.add("cd-0", pct(ref.TestAcc), ms(ref.AvgEpochSeconds(1, epochs)), ms(rat))
	for _, r := range []int{1, 2, 5, 10} {
		res, err := run(train.AlgoCDR, r)
		if err != nil {
			return err
		}
		lo := 2 * r
		if lo >= epochs {
			lo = epochs / 2
		}
		_, rat := res.AvgLATRAT(lo, epochs)
		t.add(fmt.Sprintf("cd-%d", r), pct(res.TestAcc),
			ms(res.AvgEpochSeconds(lo, epochs)), ms(rat))
	}
	zero, err := run(train.Algo0C, 0)
	if err != nil {
		return err
	}
	_, rat0 := zero.AvgLATRAT(1, epochs)
	t.add("0c", pct(zero.TestAcc), ms(zero.AvgEpochSeconds(1, epochs)), ms(rat0))
	t.write(opt.Out)
	return nil
}

// AblationOverlap isolates the §6.3 mechanism at equal delay: cd-r and
// cd-rs run the same exchange, posted as each layer's aggregation
// completes, but cd-r is charged its full network term as if every message
// blocked, while cd-rs pays only what compute failed to hide — its epoch
// time must land strictly below cd-r's with the exposed remainder ≈ 0, at
// the same accuracy (the conformance tests in internal/train pin the
// bit-identity).
func AblationOverlap(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(2*fig5Delay + 6)
	lo := 2 * fig5Delay // steady state: delay pipeline full
	if lo >= epochs {
		lo = epochs / 2
	}
	t := &table{header: []string{"run", "test acc", "RAT", "exposed net", "epoch (sim)"}}
	run := func(label string, algo train.Algorithm) error {
		res, err := train.Distributed(ds, train.DistConfig{
			Model:         fig5ModelFor("reddit-sim"),
			NumPartitions: 8, Algo: algo, Delay: fig5Delay,
			Epochs: epochs, LR: 0.02, UseAdam: true, Seed: 1,
		})
		if err != nil {
			return err
		}
		_, rat := res.AvgLATRAT(lo, epochs)
		var exposed float64
		for _, e := range res.Epochs[lo:epochs] {
			exposed += e.ExposedNet
		}
		exposed /= float64(epochs - lo)
		t.add(label, pct(res.TestAcc), ms(rat), ms(exposed),
			ms(res.AvgEpochSeconds(lo, epochs)))
		return nil
	}
	if err := run(fmt.Sprintf("cd-%d (blocking)", fig5Delay), train.AlgoCDR); err != nil {
		return err
	}
	if err := run(fmt.Sprintf("cd-%ds (overlapped)", fig5Delay), train.AlgoCDRS); err != nil {
		return err
	}
	t.write(opt.Out)
	return nil
}

// AblationPrecision measures the §7 low-precision extension: halved wire
// volume must cut cd-0's exposed network time with negligible accuracy
// loss.
func AblationPrecision(opt Options) error {
	ds, err := loadDataset("ogbn-products-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(50)
	t := &table{header: []string{"algo", "precision", "test acc", "RAT", "epoch (sim)"}}
	for _, algo := range []train.Algorithm{train.AlgoCD0, train.AlgoCDR} {
		for _, p := range []quant.Precision{quant.FP32, quant.BF16, quant.FP16} {
			cfg := train.DistConfig{
				Model:         fig5ModelFor("ogbn-products-sim"),
				NumPartitions: 8, Algo: algo,
				Epochs: epochs, LR: 0.02, UseAdam: true, Seed: 1,
				CommPrecision: p,
			}
			label := string(algo)
			if algo == train.AlgoCDR {
				cfg.Delay = fig5Delay
				label = fmt.Sprintf("cd-%d", fig5Delay)
			}
			res, err := train.Distributed(ds, cfg)
			if err != nil {
				return err
			}
			lo, hi := epochWindow(algo, epochs)
			_, rat := res.AvgLATRAT(lo, hi)
			t.add(label, p.String(), pct(res.TestAcc), ms(rat),
				ms(res.AvgEpochSeconds(lo, hi)))
		}
	}
	t.write(opt.Out)
	return nil
}

// AblationPartitioner swaps Libra for the naive baselines and shows the
// replication factor directly drives remote-aggregation cost (§5.1's
// motivation for vertex-cut quality).
func AblationPartitioner(opt Options) error {
	ds, err := loadDataset("ogbn-products-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(8)
	t := &table{header: []string{"partitioner", "replication", "RAT", "epoch (sim)"}}
	for _, p := range []partition.Partitioner{
		partition.Libra{Seed: 1}, partition.RandomEdge{Seed: 1}, partition.HashVertex{},
	} {
		res, err := train.Distributed(ds, train.DistConfig{
			Model:         fig5ModelFor("ogbn-products-sim"),
			NumPartitions: 8, Algo: train.AlgoCD0,
			Epochs: epochs, LR: 0.02, Seed: 1,
			Partitioner: p,
		})
		if err != nil {
			return err
		}
		_, rat := res.AvgLATRAT(1, epochs)
		t.add(p.Name(), f2(res.Replication), ms(rat),
			ms(res.AvgEpochSeconds(1, epochs)))
	}
	t.write(opt.Out)
	return nil
}

// AblationModel trains the three model families on the same dataset —
// GraphSAGE's GCN aggregator (the paper's configuration), the GIN combine,
// and single-head GAT — demonstrating the substrate generalizes beyond
// GraphSAGE (§7 future work).
func AblationModel(opt Options) error {
	ds, err := loadDataset("ogbn-products-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(40)
	t := &table{header: []string{"model", "test acc", "train acc"}}

	for _, agg := range []model.Aggregator{model.AggGCN, model.AggGIN, model.AggMaxPool} {
		cfg := train.SingleConfig{
			Model:  model.Config{Hidden: 64, NumLayers: 2, Aggregator: agg, GINEps: 0.1, Seed: 1},
			Epochs: epochs, LR: 0.01, UseAdam: true,
		}
		res, err := train.SingleSocket(ds, cfg)
		if err != nil {
			return err
		}
		t.add("graphsage-"+agg.String(), pct(res.TestAcc), pct(res.TrainAcc))
	}

	for _, heads := range []int{1, 4} {
		// Output width must divide the head count; padding classes (never
		// the argmax of a trained model) round it up when needed.
		out := ((ds.NumClasses + heads - 1) / heads) * heads
		gat, err := model.NewGAT(ds.G, model.GATConfig{
			InDim: ds.Features.Cols, Hidden: 64, OutDim: out,
			NumLayers: 2, NumHeads: heads, Seed: 1,
		})
		if err != nil {
			return err
		}
		adam := nn.NewAdam(0.01, 0)
		params := gat.Params()
		for e := 0; e < epochs; e++ {
			logits := gat.Forward(ds.Features, true)
			_, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
			nn.ZeroGrads(params)
			gat.Backward(dlogits)
			adam.Step(params)
		}
		logits := gat.Forward(ds.Features, false)
		t.add(fmt.Sprintf("gat-%dhead", heads),
			pct(nn.Accuracy(logits, ds.Labels, ds.TestIdx)),
			pct(nn.Accuracy(logits, ds.Labels, ds.TrainIdx)))
	}
	t.write(opt.Out)
	return nil
}
