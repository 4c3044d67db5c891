package bench

import (
	"fmt"
	"time"

	"distgnn/internal/cachesim"
	"distgnn/internal/datasets"
	"distgnn/internal/hetero"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
	"distgnn/internal/train"
)

// fig2Datasets are the GraphSAGE workloads of Fig. 2(a–c); the AM row
// (Fig. 2d) runs RGCN-hetero below, matching the paper.
var fig2Datasets = []struct {
	name   string
	layers int
	hidden int
}{
	{"reddit-sim", 2, 16},
	{"ogbn-products-sim", 3, 256},
	{"proteins-sim", 3, 256},
}

// Fig2 compares per-epoch training time and aggregation-primitive time
// between the DGL-baseline kernel (Alg. 1) and the optimized kernel
// (dynamic scheduling + blocking + loop reordering).
func Fig2(opt Options) error {
	t := &table{header: []string{"dataset", "arm", "epoch", "AP",
		"epoch speedup", "AP speedup"}}
	epochs := opt.epochs(5)
	for _, w := range fig2Datasets {
		ds, err := loadDataset(w.name, opt.scale())
		if err != nil {
			return err
		}
		run := func(baseline bool) (total, agg time.Duration, err error) {
			res, err := train.SingleSocket(ds, train.SingleConfig{
				Model: model.Config{
					Hidden: w.hidden, NumLayers: w.layers,
					UseBaselineAgg: baseline, Seed: 1,
				},
				Epochs: epochs, LR: 0.01,
			})
			if err != nil {
				return 0, 0, err
			}
			total, agg = res.AvgEpoch(1, epochs) // skip warm-up epoch
			if epochs == 1 {
				total, agg = res.AvgEpoch(0, 1)
			}
			return total, agg, nil
		}
		bTot, bAgg, err := run(true)
		if err != nil {
			return err
		}
		oTot, oAgg, err := run(false)
		if err != nil {
			return err
		}
		t.add(w.name, "DGL baseline", bTot.String(), bAgg.String(), "1.00", "1.00")
		t.add(w.name, "DistGNN opt", oTot.String(), oAgg.String(),
			f2(bTot.Seconds()/oTot.Seconds()), f2(bAgg.Seconds()/oAgg.Seconds()))
	}

	// Fig. 2(d): RGCN-hetero on AM.
	bTot, bAgg, err := rgcnEpoch(opt, true, epochs)
	if err != nil {
		return err
	}
	oTot, oAgg, err := rgcnEpoch(opt, false, epochs)
	if err != nil {
		return err
	}
	t.add("am-sim (RGCN)", "DGL baseline", bTot.String(), bAgg.String(), "1.00", "1.00")
	t.add("am-sim (RGCN)", "DistGNN opt", oTot.String(), oAgg.String(),
		f2(bTot.Seconds()/oTot.Seconds()), f2(bAgg.Seconds()/oAgg.Seconds()))
	t.write(opt.Out)
	return nil
}

// rgcnEpoch trains RGCN-hetero on am-sim for a few epochs and returns the
// average epoch and AP times (skipping the warm-up epoch when possible).
func rgcnEpoch(opt Options, baseline bool, epochs int) (total, agg time.Duration, err error) {
	ds, tg, err := hetero.SyntheticAM(opt.scale(), 6)
	if err != nil {
		return 0, 0, err
	}
	m, err := hetero.NewRGCN(tg, hetero.RGCNConfig{
		InDim: ds.Features.Cols, Hidden: 16, OutDim: ds.NumClasses,
		NumLayers: 2, UseBaselineAgg: baseline, Seed: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	sgd := &nn.SGD{LR: 0.01}
	params := m.Params()
	var totals, aggs time.Duration
	counted := 0
	for e := 0; e < epochs; e++ {
		start := time.Now()
		m.ResetAggTime()
		logits := m.Forward(ds.Features, true)
		_, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
		nn.ZeroGrads(params)
		m.Backward(dlogits)
		sgd.Step(params)
		if e == 0 && epochs > 1 {
			continue // warm-up
		}
		totals += time.Since(start)
		aggs += m.AggTime
		counted++
	}
	return totals / time.Duration(counted), aggs / time.Duration(counted), nil
}

var blockSweep = []int{1, 2, 4, 8, 16, 32, 64}

// cacheBytesFor models the per-socket LLC share, scaled so the cache holds
// roughly 1/12 of the vertex feature matrix — the regime the paper's Xeon
// 8280 (38.5 MB LLC) is in for Reddit's 560 MB feature matrix.
func cacheBytesFor(ds *datasets.Dataset) int {
	featBytes := ds.Features.Cols * 4
	c := ds.G.NumVertices * featBytes / 12
	if c < 16*featBytes {
		c = 16 * featBytes
	}
	return c
}

// Table3 reports the cache reuse factor of the AP kernel versus the number
// of blocks, for the dense (reddit-sim) and sparse (ogbn-products-sim)
// graphs, alongside density and ideal reuse — Table 3 of the paper.
func Table3(opt Options) error {
	t := &table{header: append([]string{"dataset", "density", "ideal"},
		nBHeaders()...)}
	for _, name := range []string{"reddit-sim", "ogbn-products-sim"} {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return err
		}
		featBytes := ds.Features.Cols * 4
		cfg := cachesim.APConfig{
			FeatureBytes:    featBytes,
			CacheBytes:      cacheBytesFor(ds),
			ReorderedOutput: true,
		}
		stats := cachesim.SweepBlocks(ds.G, cfg, blockSweep)
		row := []string{name, fmt.Sprintf("%.2g", ds.G.Density()), f2(ds.G.AvgDegree())}
		for _, s := range stats {
			row = append(row, f2(s.EffectiveReuse(featBytes)))
		}
		t.add(row...)
	}
	t.write(opt.Out)
	return nil
}

func nBHeaders() []string {
	var out []string
	for _, nB := range blockSweep {
		out = append(out, fmt.Sprintf("nB=%d", nB))
	}
	return out
}

// timeAggKernel measures the optimized AP kernel (copylhs/sum over the
// dataset's features) for one configuration.
func timeAggKernel(ds *datasets.Dataset, opt spmm.Options) (time.Duration, error) {
	plan := spmm.NewPlan(ds.G, opt)
	out := tensor.New(ds.G.NumVertices, ds.Features.Cols)
	return timePass(func() error { return plan.Run(ds.Features, out) })
}

// Fig3 sweeps the block count and reports measured AP kernel time next to
// simulated bytes read/written/total — the correlation Fig. 3 shows.
func Fig3(opt Options) error {
	t := &table{header: []string{"dataset", "nB", "AP time",
		"read MB", "written MB", "total MB", "reuse"}}
	for _, name := range []string{"reddit-sim", "ogbn-products-sim"} {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return err
		}
		featBytes := ds.Features.Cols * 4
		cfg := cachesim.APConfig{
			FeatureBytes:    featBytes,
			CacheBytes:      cacheBytesFor(ds),
			ReorderedOutput: true,
		}
		for _, nB := range blockSweep {
			elapsed, err := timeAggKernel(ds, spmm.DefaultOptions(nB))
			if err != nil {
				return err
			}
			c := cfg
			c.NumBlocks = nB
			st := cachesim.SimulateAP(ds.G, c)
			t.add(name, fmt.Sprint(nB), elapsed.String(),
				f2(float64(st.BytesRead)/1e6), f2(float64(st.BytesWritten)/1e6),
				f2(float64(st.TotalIO())/1e6), f2(st.EffectiveReuse(featBytes)))
		}
	}
	t.write(opt.Out)
	return nil
}

// Fig4 reports the cumulative effect of each single-socket optimization —
// dynamic scheduling (DS), cache blocking (Block), loop reordering with
// specialized kernels (LR) — on AP time and simulated memory IO.
func Fig4(opt Options) error {
	t := &table{header: []string{"dataset", "arm", "AP time", "memory IO MB", "speedup"}}
	for _, name := range []string{"reddit-sim", "ogbn-products-sim"} {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return err
		}
		cacheBytes := cacheBytesFor(ds)
		featBytes := ds.Features.Cols * 4

		// Best block count by simulated total IO (the paper's sweet spot).
		bestNB, bestIO := 1, int64(1<<62)
		for _, nB := range blockSweep {
			st := cachesim.SimulateAP(ds.G, cachesim.APConfig{
				NumBlocks: nB, FeatureBytes: featBytes, CacheBytes: cacheBytes,
				ReorderedOutput: true,
			})
			if st.TotalIO() < bestIO {
				bestNB, bestIO = nB, st.TotalIO()
			}
		}

		simIO := func(nB int, reordered bool) float64 {
			st := cachesim.SimulateAP(ds.G, cachesim.APConfig{
				NumBlocks: nB, FeatureBytes: featBytes, CacheBytes: cacheBytes,
				ReorderedOutput: reordered,
			})
			return float64(st.TotalIO()) / 1e6
		}

		// Arm 1: DGL baseline (Alg. 1 interpreted kernel, static schedule).
		out := tensor.New(ds.G.NumVertices, ds.Features.Cols)
		args := &spmm.Args{G: ds.G, FV: ds.Features, FO: out,
			Op: spmm.OpCopyLHS, Red: spmm.ReduceSum}
		baseTime, err := timePass(func() error { return spmm.Baseline(args) })
		if err != nil {
			return err
		}

		arms := []struct {
			name string
			opt  spmm.Options
			io   float64
		}{
			{"baseline", spmm.Options{}, simIO(1, false)},
			{"+DS", spmm.Options{NumBlocks: 1}, simIO(1, false)},
			{"+DS+Block", spmm.Options{NumBlocks: bestNB}, simIO(bestNB, false)},
			{"+DS+Block+LR", spmm.Options{NumBlocks: bestNB, Reordered: true}, simIO(bestNB, true)},
		}
		t.add(name, arms[0].name, baseTime.String(), f2(arms[0].io), "1.00")
		for _, arm := range arms[1:] {
			elapsed, err := timeAggKernel(ds, arm.opt)
			if err != nil {
				return err
			}
			t.add(name, arm.name, elapsed.String(), f2(arm.io),
				f2(baseTime.Seconds()/elapsed.Seconds()))
		}
	}
	t.write(opt.Out)
	return nil
}
