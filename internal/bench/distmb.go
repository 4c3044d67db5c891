package bench

import (
	"encoding/json"
	"fmt"
	"math"

	"distgnn/internal/minibatch"
)

// distmb.go is the abl-distmb ablation: wall-clock epoch time and halo
// behaviour of the sampled mini-batch trainer (minibatch.TrainSharded)
// across rank counts on the in-process fabric. A rank's halo cache changes
// no trained bit (the conformance pin in internal/minibatch holds that);
// what this ablation measures is the cost of sourcing features remotely —
// halo fetch volume, cache hit rate, and the wall-epoch trajectory as
// ranks are added. The wall times are
// reported, not gated; the mini-batch step's allocation budget
// (internal/minibatch) pins the rank loop every arm runs. With
// Options.JSON set the rows land in one machine-readable report.

const (
	distMBHidden     = 64
	distMBBatch      = 512
	distMBFanout     = 10
	distMBCacheBytes = 32 << 20
)

// DistMBRow is one rank-count arm of the sharded mini-batch ablation.
type DistMBRow struct {
	Ranks int `json:"ranks"`
	// EpochS is the min-over-epochs wall time (steady state, insulated
	// from first-epoch warmup and cold halo caches).
	EpochS float64 `json:"epoch_s"`
	Steps  int     `json:"steps"`
	// HaloHitRate is the fleet-wide remote-row cache hit rate.
	HaloHitRate float64 `json:"halo_hit_rate"`
	// HaloFetchedRows counts feature rows actually pulled from peers.
	HaloFetchedRows int64   `json:"halo_fetched_rows"`
	TestAcc         float64 `json:"test_acc"`
}

// DistMBBenchReport is abl-distmb's JSON report.
type DistMBBenchReport struct {
	Experiment string      `json:"experiment"`
	Scale      float64     `json:"scale"`
	Epochs     int         `json:"epochs"`
	Rows       []DistMBRow `json:"rows"`
}

// AblationDistMB measures sharded mini-batch training over the shared
// feature-sourcing plane: wall epoch and halo hit rate vs rank count.
func AblationDistMB(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(3)
	report := DistMBBenchReport{Experiment: "abl-distmb", Scale: opt.scale(), Epochs: epochs}
	t := &table{header: []string{"#ranks", "epoch (wall)", "steps", "halo hit", "rows fetched", "test acc"}}
	for _, ranks := range []int{1, 2, 4} {
		res, err := minibatch.TrainSharded(ds, minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden:    distMBHidden,
				Fanouts:   []int{distMBFanout, distMBFanout},
				BatchSize: distMBBatch, Epochs: epochs,
				LR: 0.02, UseAdam: true, Seed: 1,
			},
			NumRanks:   ranks,
			CacheBytes: distMBCacheBytes,
		})
		if err != nil {
			return err
		}
		best := math.Inf(1)
		for _, e := range res.Epochs {
			if sec := e.Time.Seconds(); sec < best {
				best = sec
			}
		}
		var hits, misses, fetched int64
		for _, hs := range res.HaloStats {
			hits += hs.HaloHits
			misses += hs.HaloMisses
			fetched += hs.HaloFetchedVertices
		}
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		row := DistMBRow{
			Ranks: ranks, EpochS: best, Steps: res.Epochs[len(res.Epochs)-1].Steps,
			HaloHitRate: rate, HaloFetchedRows: fetched, TestAcc: res.TestAcc,
		}
		report.Rows = append(report.Rows, row)
		t.add(fmt.Sprint(ranks), ms(best), fmt.Sprint(row.Steps),
			pct(rate), fmt.Sprint(fetched), pct(res.TestAcc))
	}
	t.write(opt.Out)

	if opt.JSON != nil {
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	return nil
}
