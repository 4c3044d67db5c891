package bench

import (
	"fmt"
	"math"

	"distgnn/internal/minibatch"
)

// distmb.go is the abl-distmb ablation: wall-clock epoch time and halo
// traffic of the sampled mini-batch trainer (minibatch.TrainSharded)
// across rank counts on the in-process fabric. What it measures is the
// cost of sourcing features remotely — halo fetch volume and the
// wall-epoch trajectory as ranks are added. The wall times are reported,
// not gated; the mini-batch step's allocation budget (internal/minibatch)
// pins the rank loop every arm runs.

const (
	distMBHidden = 64
	distMBBatch  = 512
	distMBFanout = 10
)

// AblationDistMB measures sharded mini-batch training over the shared
// feature-sourcing plane: wall epoch and halo rows fetched vs rank count.
func AblationDistMB(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(3)
	t := &table{header: []string{"#ranks", "epoch (wall)", "steps", "rows fetched", "test acc"}}
	for _, ranks := range []int{1, 2, 4} {
		res, err := minibatch.TrainSharded(ds, minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden:    distMBHidden,
				Fanouts:   []int{distMBFanout, distMBFanout},
				BatchSize: distMBBatch, Epochs: epochs,
				LR: 0.02, UseAdam: true, Seed: 1,
			},
			NumRanks: ranks,
		})
		if err != nil {
			return err
		}
		// Min over epochs: the steady-state epoch, insulated from
		// first-epoch warmup.
		best := math.Inf(1)
		for _, e := range res.Epochs {
			best = min(best, e.Time.Seconds())
		}
		var fetched int64
		for _, hs := range res.HaloStats {
			fetched += hs.HaloFetchedVertices
		}
		t.add(fmt.Sprint(ranks), ms(best), fmt.Sprint(res.Epochs[len(res.Epochs)-1].Steps),
			fmt.Sprint(fetched), pct(res.TestAcc))
	}
	t.write(opt.Out)
	return nil
}
