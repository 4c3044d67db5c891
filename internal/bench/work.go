package bench

import (
	"fmt"

	"distgnn/internal/datasets"

	"distgnn/internal/minibatch"
	"distgnn/internal/partition"
	"distgnn/internal/train"
)

// table7Fanouts are Dist-DGL's per-hop neighbor budgets in Table 7
// (hop-0 expands with 15, then 10, then 5).
var table7Fanouts = []int{15, 10, 5}

const table7Batch = 200 // scaled from the paper's 2000 proportionally

// loadLowLabelProducts generates the products-sim graph with the real
// OGBN-Products label budget: 196,615 of 2,449,029 vertices (≈8%) are
// training vertices. The mini-batch-vs-full-batch work ratio of Tables 7–9
// hinges on this fraction, so the default 60% split would distort it.
func loadLowLabelProducts(opt Options) (*datasets.Dataset, error) {
	spec, err := datasets.SpecFor("ogbn-products-sim", opt.scale())
	if err != nil {
		return nil, err
	}
	spec.Name = "ogbn-products-lowlabel"
	spec.TrainFrac = 0.08
	spec.ValFrac = 0.02
	key := fmt.Sprintf("%s@%g", spec.Name, opt.scale())
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	d, err := datasets.Generate(spec)
	if err != nil {
		return nil, err
	}
	dsCache[key] = d
	return d, nil
}

// Table7 measures the sampled aggregation work of the Dist-DGL style
// mini-batch pipeline per hop, per mini-batch, and per epoch — the paper's
// Table 7 accounting, measured from an actual sampler instead of assumed.
func Table7(opt Options) error {
	ds, err := loadLowLabelProducts(opt)
	if err != nil {
		return err
	}
	sampler, err := minibatch.NewSampler(ds.G, table7Fanouts, 1)
	if err != nil {
		return err
	}
	hidden := fig5ModelFor("ogbn-products-sim").Hidden
	feats := []int{ds.Features.Cols, hidden, hidden}

	// Sample a representative batch of training vertices.
	batch := ds.TrainIdx
	if len(batch) > table7Batch {
		batch = batch[:table7Batch]
	}
	s := sampler.Sample(batch)

	t := &table{header: []string{"hop", "#vertices", "avg sampled deg",
		"#feats", "work (M ops)"}}
	var perBatch float64
	for h := len(s.Blocks) - 1; h >= 0; h-- {
		blk := s.Blocks[h]
		deg := float64(blk.NumSampledEdges()) / float64(blk.NumDst)
		feat := feats[len(s.Blocks)-1-h]
		hop := hopWork{Vertices: blk.NumDst, Degree: deg, Feat: feat}
		perBatch += hop.Ops()
		t.add(fmt.Sprintf("hop-%d", h), fmt.Sprint(blk.NumDst), f2(deg),
			fmt.Sprint(feat), f2(hop.Ops()/1e6))
	}
	batches := (len(ds.TrainIdx) + table7Batch - 1) / table7Batch
	t.add("1 mini-batch", "", "", "", f2(perBatch/1e6))
	t.add(fmt.Sprintf("1 socket (%d batches)", batches), "", "", "",
		f2(perBatch*float64(batches)/1e6))
	t.write(opt.Out)
	return nil
}

// Table8 reports full-batch aggregation work per hop for 1 and 16
// partitions, from actual Libra partitions — the paper's Table 8.
func Table8(opt Options) error {
	ds, err := loadDataset("ogbn-products-sim", opt.scale())
	if err != nil {
		return err
	}
	hidden := fig5ModelFor("ogbn-products-sim").Hidden
	feats := []int{ds.Features.Cols, hidden, hidden}

	t := &table{header: []string{"#sockets", "hop", "#vertices/partition",
		"avg deg", "#feats", "work/socket (M ops)"}}
	for _, k := range []int{1, 16} {
		vertices := ds.G.NumVertices
		if k > 1 {
			pt, err := partition.Partition(ds.G, partition.Libra{Seed: 1}, k, 1)
			if err != nil {
				return err
			}
			// Largest partition bounds the per-socket work.
			vertices = 0
			for _, p := range pt.Parts {
				if p.NumLocal() > vertices {
					vertices = p.NumLocal()
				}
			}
		}
		hops := fullBatchHops(vertices, ds.G.AvgDegree(), feats)
		var total float64
		for i, h := range hops {
			total += h.Ops()
			t.add(fmt.Sprint(k), fmt.Sprintf("hop-%d", len(hops)-1-i),
				fmt.Sprint(h.Vertices), f2(h.Degree), fmt.Sprint(h.Feat),
				f2(h.Ops()/1e6))
		}
		t.add(fmt.Sprint(k), "full batch", "", "", "", f2(total/1e6))
	}
	t.write(opt.Out)
	return nil
}

// Table9 compares training time per epoch of the mini-batch (Dist-DGL
// analogue) pipeline against full-batch DistGNN cd-5: measured wall time on
// one socket, simulated cluster time at 16 sockets.
func Table9(opt Options) error {
	ds, err := loadLowLabelProducts(opt)
	if err != nil {
		return err
	}
	epochs := opt.epochs(3)

	mb, err := minibatch.TrainSharded(ds, minibatch.DistConfig{
		Config: minibatch.Config{
			Hidden:  fig5ModelFor("ogbn-products-sim").Hidden,
			Fanouts: table7Fanouts, BatchSize: table7Batch,
			Epochs: epochs, LR: 0.01, Seed: 1,
		},
		NumRanks: 1,
	})
	if err != nil {
		return err
	}

	single, err := train.SingleSocket(ds, train.SingleConfig{
		Model:  fig5ModelFor("ogbn-products-sim"),
		Epochs: epochs, LR: 0.01,
	})
	if err != nil {
		return err
	}
	sTot, _ := single.AvgEpoch(0, epochs)

	dist16, err := distRun(opt, "ogbn-products-sim", 16, train.AlgoCDR, opt.epochs(2*fig5Delay+4))
	if err != nil {
		return err
	}
	lo, hi := epochWindow(train.AlgoCDR, opt.epochs(2*fig5Delay+4))
	d16 := dist16.AvgEpochSeconds(lo, hi)

	t := &table{header: []string{"#sockets", "Dist-DGL (mini-batch)", "DistGNN cd-5 (full batch)"}}
	t.add("1", mb.AvgEpochTime().String(), sTot.String()+" (measured)")
	t.add("16", "-", ms(d16)+" (simulated)")
	t.write(opt.Out)
	fmt.Fprintf(opt.Out, "\nmini-batch sampled work/epoch: %.1f M ops; full-batch work/epoch: %.1f M ops (%.1fx)\n",
		float64(mb.Epochs[0].SampledWork)/1e6,
		fullBatchOps(ds.G.NumVertices, ds.G.AvgDegree(), ds.Features.Cols)/1e6,
		fullBatchOps(ds.G.NumVertices, ds.G.AvgDegree(), ds.Features.Cols)/float64(mb.Epochs[0].SampledWork))
	return nil
}

func fullBatchOps(vertices int, avgDeg float64, featDim int) float64 {
	hidden := fig5ModelFor("ogbn-products-sim").Hidden
	return totalOps(fullBatchHops(vertices, avgDeg,
		[]int{featDim, hidden, hidden}))
}
