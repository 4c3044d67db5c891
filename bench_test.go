// Package distgnn_test hosts the top-level testing.B benchmarks: one per
// timed table and figure of the paper's evaluation. Each benchmark exercises
// the core operation behind its artifact so `go test -bench=. -benchmem`
// doubles as a regression harness for the reproduction; the full printed
// tables come from `distgnn-bench <id>` (see internal/bench). Tables 6 and 8
// are closed-form models with nothing to time: internal/bench's unit tests
// check them.
package distgnn_test

import (
	"testing"

	"distgnn/internal/cachesim"
	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
	"distgnn/internal/partition"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

const benchScale = 0.25

func benchDataset(b *testing.B, name string) *datasets.Dataset {
	b.Helper()
	ds, err := datasets.Load(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// aggArgs builds the GNN hot-path AP invocation (copylhs/sum) for a dataset.
func aggArgs(ds *datasets.Dataset) *spmm.Args {
	return &spmm.Args{
		G:  ds.G,
		FV: ds.Features,
		FO: tensor.New(ds.G.NumVertices, ds.Features.Cols),
		Op: spmm.OpCopyLHS, Red: spmm.ReduceSum,
	}
}

// --- Fig. 2: baseline vs optimized aggregation primitive ------------------

func BenchmarkFig2BaselineAPReddit(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	args := aggArgs(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spmm.Baseline(args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2OptimizedAPReddit(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	args := aggArgs(ds)
	plan := spmm.NewPlan(ds.G, spmm.DefaultOptions(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Run(args.FV, args.FO); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2BaselineAPProducts(b *testing.B) {
	ds := benchDataset(b, "ogbn-products-sim")
	args := aggArgs(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spmm.Baseline(args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2OptimizedAPProducts(b *testing.B) {
	ds := benchDataset(b, "ogbn-products-sim")
	args := aggArgs(ds)
	plan := spmm.NewPlan(ds.G, spmm.DefaultOptions(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Run(args.FV, args.FO); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3 / Fig. 3: cache-blocking sweep --------------------------------

func BenchmarkTable3CacheSimulation(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	cfg := cachesim.APConfig{
		NumBlocks: 16, FeatureBytes: ds.Features.Cols * 4,
		CacheBytes: ds.G.NumVertices * ds.Features.Cols / 3, ReorderedOutput: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := cachesim.SimulateAP(ds.G, cfg)
		if st.FVAccesses == 0 {
			b.Fatal("empty simulation")
		}
	}
}

func BenchmarkFig3BlockedKernelSweep(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	for _, nB := range []int{1, 4, 16, 64} {
		plan := spmm.NewPlan(ds.G, spmm.DefaultOptions(nB))
		args := aggArgs(ds)
		b.Run(map[int]string{1: "nB=1", 4: "nB=4", 16: "nB=16", 64: "nB=64"}[nB], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := plan.Run(args.FV, args.FO); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 4: optimization ladder -------------------------------------------

// BenchmarkFig4OptimizationLadder times the optimized rungs; the static
// Alg. 1 baseline they are measured against is BenchmarkFig2Baseline*.
func BenchmarkFig4OptimizationLadder(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	args := aggArgs(ds)
	arms := []struct {
		name string
		opt  spmm.Options
	}{
		{"DS", spmm.Options{NumBlocks: 1}},
		{"DS_Block", spmm.Options{NumBlocks: 8}},
		{"DS_Block_LR", spmm.Options{NumBlocks: 8, Reordered: true}},
	}
	for _, arm := range arms {
		plan := spmm.NewPlan(ds.G, arm.opt)
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := plan.Run(args.FV, args.FO); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 4: Libra partitioning -------------------------------------------

func BenchmarkTable4LibraPartition(b *testing.B) {
	ds := benchDataset(b, "ogbn-products-sim")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := partition.Partition(ds.G, partition.Libra{Seed: 1}, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		if pt.ReplicationFactor() < 1 {
			b.Fatal("bad partitioning")
		}
	}
}

// --- Fig. 5 / Fig. 6: distributed epoch under each algorithm ---------------

func benchDistEpoch(b *testing.B, algo train.Algorithm, delay int) {
	ds := benchDataset(b, "ogbn-products-sim")
	epochs := 3
	if algo == train.AlgoCDR {
		epochs = 2*delay + 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := train.Distributed(ds, train.DistConfig{
			Model:         model.Config{Hidden: 32, NumLayers: 2, Seed: 1},
			NumPartitions: 8, Algo: algo, Delay: delay,
			Epochs: epochs, LR: 0.01, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Epochs) != epochs {
			b.Fatal("missing epochs")
		}
	}
}

func BenchmarkFig5Dist0C(b *testing.B)  { benchDistEpoch(b, train.Algo0C, 0) }
func BenchmarkFig5DistCD0(b *testing.B) { benchDistEpoch(b, train.AlgoCD0, 0) }
func BenchmarkFig6DistCD5(b *testing.B) { benchDistEpoch(b, train.AlgoCDR, 5) }

// --- Table 5: full training epoch (forward+backward+step) ------------------

func BenchmarkTable5TrainingEpoch(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	m, err := model.New(ds.G, model.Config{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: ds.NumClasses,
		NumLayers: 2, Seed: 1,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	opt := &nn.SGD{LR: 0.01}
	params := m.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		logits := m.Forward(ds.Features, true)
		_, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
		nn.ZeroGrads(params)
		m.Backward(dlogits)
		opt.Step(params)
	}
}

// --- Table 7: neighborhood sampling ----------------------------------------

func BenchmarkTable7NeighborSampling(b *testing.B) {
	ds := benchDataset(b, "ogbn-products-sim")
	sampler, err := minibatch.NewSampler(ds.G, []int{15, 10, 5}, 1)
	if err != nil {
		b.Fatal(err)
	}
	seeds := ds.TrainIdx
	if len(seeds) > 200 {
		seeds = seeds[:200]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sampler.Sample(seeds)
		if len(s.Blocks) != 3 {
			b.Fatal("bad sample")
		}
	}
}

// --- Table 9: mini-batch training epoch -------------------------------------

func BenchmarkTable9MiniBatchEpoch(b *testing.B) {
	ds := benchDataset(b, "ogbn-products-sim")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := minibatch.TrainDistributed(ds, minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden: 32, Fanouts: []int{10, 5},
				BatchSize: 256, Epochs: 1, LR: 0.01, Seed: 1,
			},
			NumRanks: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Epochs) != 1 {
			b.Fatal("missing epoch")
		}
	}
}

// --- Cross-cutting: unified parallel runtime, serial vs pooled --------------

// withWorkers runs body under a fixed worker-pool size and restores the
// default afterwards, so the serial arm is a true single-thread baseline.
func withWorkers(b *testing.B, workers int, body func(b *testing.B)) {
	parallel.Configure(parallel.Config{Workers: workers})
	defer parallel.Configure(parallel.Config{})
	body(b)
}

// BenchmarkRuntimeSpMM records ns/op and allocs/op for the optimized
// aggregation kernel with the pool pinned to one worker vs the full team —
// the speedup (and the per-op allocation floor) the unified runtime buys.
func BenchmarkRuntimeSpMM(b *testing.B) {
	ds := benchDataset(b, "reddit-sim")
	args := aggArgs(ds)
	plan := spmm.NewPlan(ds.G, spmm.DefaultOptions(8))
	for _, arm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pooled", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			withWorkers(b, arm.workers, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := plan.Run(args.FV, args.FO); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkRuntimeMatMul is the dense-kernel twin of BenchmarkRuntimeSpMM.
func BenchmarkRuntimeMatMul(b *testing.B) {
	const m, k, n = 4096, 128, 128
	a := tensor.New(m, k)
	bm := tensor.New(k, n)
	c := tensor.New(m, n)
	for i := range a.Data {
		a.Data[i] = float32(i%17) * 0.25
	}
	for i := range bm.Data {
		bm.Data[i] = float32(i%13) * 0.5
	}
	for _, arm := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"pooled", 0}} {
		b.Run(arm.name, func(b *testing.B) {
			withWorkers(b, arm.workers, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMul(c, a, bm)
				}
			})
		})
	}
}

// --- Cross-cutting: parameter AllReduce (the per-epoch sync) ----------------

func BenchmarkParamAllReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		comm.RunInProcess(8, func(w *comm.World) {
			buf := make([]float32, 1<<14)
			w.AllReduceSum(buf)
		})
	}
}
