package bench

import (
	"fmt"
	"sync"

	"distgnn/internal/model"
	"distgnn/internal/partition"
	"distgnn/internal/train"
)

// table4Sweeps mirrors Table 4's partition counts per dataset (scaled: the
// papers row sweeps up to 128).
var table4Sweeps = map[string][]int{
	"reddit-sim":        {2, 4, 8, 16},
	"ogbn-products-sim": {2, 4, 8, 16, 32, 64},
	"proteins-sim":      {2, 4, 8, 16, 32, 64},
	"ogbn-papers-sim":   {32, 64, 128},
}

var table4Order = []string{"reddit-sim", "ogbn-products-sim", "proteins-sim", "ogbn-papers-sim"}

// Table4 reports Libra's average replication factor per partition count,
// plus the edge balance — §5.1's two partitioning goals.
func Table4(opt Options) error {
	t := &table{header: []string{"dataset", "#partitions", "replication", "edge balance"}}
	for _, name := range table4Order {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return err
		}
		for _, k := range table4Sweeps[name] {
			pt, err := partition.Partition(ds.G, partition.Libra{Seed: 1}, k, 1)
			if err != nil {
				return err
			}
			t.add(name, fmt.Sprint(k), f2(pt.ReplicationFactor()), f3(pt.EdgeBalance()))
		}
	}
	t.write(opt.Out)
	return nil
}

// fig5Sweeps mirrors Fig. 5's socket counts (papers-sim starts at 32 in the
// paper for memory reasons; here it simply follows the same sweep).
var fig5Sweeps = map[string][]int{
	"reddit-sim":        {2, 4, 8, 16},
	"ogbn-products-sim": {2, 4, 8, 16, 32, 64},
	"proteins-sim":      {2, 4, 8, 16, 32, 64},
	"ogbn-papers-sim":   {32, 64, 128},
}

const fig5Delay = 5 // the paper runs cd-r with r=5 throughout

// fig5ModelFor returns the paper's model shape for a dataset (2×16 for
// Reddit, 3×256 otherwise), with a smaller hidden size to keep the scaled
// runs brisk.
func fig5ModelFor(name string) model.Config {
	if name == "reddit-sim" {
		return model.Config{Hidden: 16, NumLayers: 2, Seed: 1}
	}
	return model.Config{Hidden: 64, NumLayers: 3, Seed: 1}
}

// distCache holds every distRun result of this process, keyed like
// dsCache plus the run's parameters: a run's figures are a function of
// them alone, so Fig. 6 reads Fig. 5's sweep instead of training it again.
var (
	distMu    sync.Mutex
	distCache = map[string]*train.DistResult{}
)

// distRun executes one distributed configuration, or returns the result
// this process already has for it.
func distRun(opt Options, name string, k int, algo train.Algorithm, epochs int) (*train.DistResult, error) {
	key := fmt.Sprintf("%s@%g/%d/%s/%d", name, opt.scale(), k, algo, epochs)
	distMu.Lock()
	defer distMu.Unlock()
	if res, ok := distCache[key]; ok {
		return res, nil
	}
	ds, err := loadDataset(name, opt.scale())
	if err != nil {
		return nil, err
	}
	cfg := train.DistConfig{
		Model:         fig5ModelFor(name),
		NumPartitions: k,
		Algo:          algo,
		Epochs:        epochs,
		LR:            0.01,
		Seed:          1,
	}
	if algo == train.AlgoCDR {
		cfg.Delay = fig5Delay
	}
	res, err := train.Distributed(ds, cfg)
	if err == nil {
		distCache[key] = res
	}
	return res, err
}

// epochWindow returns the averaging window the paper uses: epochs 1–10 for
// 0c/cd-0 and 10–20 for cd-r (steady state after the delay pipeline fills).
func epochWindow(algo train.Algorithm, epochs int) (int, int) {
	if algo == train.AlgoCDR {
		lo := 2 * fig5Delay
		if lo >= epochs {
			lo = epochs / 2
		}
		return lo, epochs
	}
	return 1, epochs
}

// Fig5 reports simulated per-epoch time and speedup over the optimized
// single-socket run for the three distributed algorithms across socket
// counts.
func Fig5(opt Options) error {
	t := &table{header: []string{"dataset", "#sockets", "algo",
		"epoch (sim)", "speedup vs 1 socket"}}
	epochs := opt.epochs(2*fig5Delay + 6)
	for _, name := range table4Order {
		// Single-socket reference: one partition, no communication.
		ref, err := distRun(opt, name, 1, train.Algo0C, opt.epochs(4))
		if err != nil {
			return err
		}
		refTime := ref.AvgEpochSeconds(1, opt.epochs(4))
		t.add(name, "1", "single", ms(refTime), "1.00")
		for _, k := range fig5Sweeps[name] {
			for _, algo := range []train.Algorithm{train.AlgoCD0, train.AlgoCDR, train.Algo0C} {
				res, err := distRun(opt, name, k, algo, epochs)
				if err != nil {
					return err
				}
				lo, hi := epochWindow(algo, epochs)
				et := res.AvgEpochSeconds(lo, hi)
				label := string(algo)
				if algo == train.AlgoCDR {
					label = fmt.Sprintf("cd-%d", fig5Delay)
				}
				t.add(name, fmt.Sprint(k), label, ms(et), f2(refTime/et))
			}
		}
	}
	t.write(opt.Out)
	return nil
}

// Fig6 reports the forward-pass split into local aggregation time (LAT)
// and remote aggregation time (RAT) per algorithm and socket count.
func Fig6(opt Options) error {
	t := &table{header: []string{"dataset", "#sockets", "algo", "LAT", "RAT"}}
	epochs := opt.epochs(2*fig5Delay + 6)
	for _, name := range table4Order {
		for _, k := range fig5Sweeps[name] {
			for _, algo := range []train.Algorithm{train.AlgoCD0, train.AlgoCDR, train.Algo0C} {
				res, err := distRun(opt, name, k, algo, epochs)
				if err != nil {
					return err
				}
				lo, hi := epochWindow(algo, epochs)
				lat, rat := res.AvgLATRAT(lo, hi)
				label := string(algo)
				if algo == train.AlgoCDR {
					label = fmt.Sprintf("cd-%d", fig5Delay)
				}
				t.add(name, fmt.Sprint(k), label, ms(lat), ms(rat))
			}
		}
	}
	t.write(opt.Out)
	return nil
}

// table5Sweeps mirrors Table 5's socket counts.
var table5Sweeps = map[string][]int{
	"reddit-sim":        {1, 2, 4, 8, 16},
	"ogbn-products-sim": {1, 2, 4, 8, 16},
	"ogbn-papers-sim":   {1, 8},
}

var table5Order = []string{"reddit-sim", "ogbn-products-sim", "ogbn-papers-sim"}

// Table5 trains to convergence under each distributed algorithm and
// reports global test accuracy — the paper's claim is that cd-r and 0c
// stay within ~1% of cd-0/single-socket.
func Table5(opt Options) error {
	t := &table{header: []string{"dataset", "#sockets",
		"cd-0 acc", "cd-5 acc", "0c acc"}}
	epochs := opt.epochs(60)
	for _, name := range table5Order {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return err
		}
		for _, k := range table5Sweeps[name] {
			row := []string{name, fmt.Sprint(k)}
			for _, algo := range []train.Algorithm{train.AlgoCD0, train.AlgoCDR, train.Algo0C} {
				cfg := train.DistConfig{
					Model:         fig5ModelFor(name),
					NumPartitions: k,
					Algo:          algo,
					Epochs:        epochs,
					LR:            0.01,
					UseAdam:       true,
					Seed:          1,
				}
				if algo == train.AlgoCDR {
					cfg.Delay = fig5Delay
				}
				res, err := train.Distributed(ds, cfg)
				if err != nil {
					return err
				}
				row = append(row, pct(res.TestAcc))
			}
			t.add(row...)
		}
	}
	t.write(opt.Out)
	return nil
}

// Table6 reports the per-partition peak memory estimate of each algorithm
// and the measured split-vertex percentage for the papers-sim dataset.
func Table6(opt Options) error {
	ds, err := loadDataset("ogbn-papers-sim", opt.scale())
	if err != nil {
		return err
	}
	t := &table{header: []string{"partitions", "cd-0 mem (MB)", "cd-5 mem (MB)",
		"0c mem (MB)", "split-vertices/partition"}}
	for _, k := range []int{32, 64, 128} {
		pt, err := partition.Partition(ds.G, partition.Libra{Seed: 1}, k, 1)
		if err != nil {
			return err
		}
		// Largest partition bounds peak memory.
		maxPart := 0
		for _, p := range pt.Parts {
			if p.NumLocal() > pt.Parts[maxPart].NumLocal() {
				maxPart = p.ID
			}
		}
		splitCounts := make([]int, k)
		for _, sv := range pt.Splits {
			for _, c := range sv.Clones {
				splitCounts[c.Part]++
			}
		}
		p := memoryParams{
			N: pt.Parts[maxPart].NumLocal(),
			F: ds.Features.Cols, H1: 64, H2: 64, L: ds.NumClasses,
			Edges:         pt.Parts[maxPart].G.NumEdges,
			SplitVertices: splitCounts[maxPart],
			Delay:         fig5Delay,
		}
		mem := func(algo string) string {
			b, err := memoryModel(p, algo)
			if err != nil {
				return "?"
			}
			return f2(float64(b) / 1e6)
		}
		fracs := pt.SplitVertexFraction()
		var avg float64
		for _, f := range fracs {
			avg += f
		}
		avg /= float64(len(fracs))
		t.add(fmt.Sprint(k), mem(algoCD0), mem(algoCDR), mem(algo0C), pct(avg))
	}
	t.write(opt.Out)
	return nil
}
