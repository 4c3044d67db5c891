package minibatch

import (
	"fmt"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/partition"
	"distgnn/internal/spmm"
)

// distsharded.go is TrainDistributed with the feature replication removed:
// the same rank loop, but every rank materializes only the feature rows of
// the vertices it owns (internal/partition's deterministic vertex-cut
// reduced to unique owners, exactly as the sharded serving engine does)
// and reads everything else through featstore.Sharded — one batched halo
// fetch per owner rank over the comm.ReqRep plane, absorbed by a per-rank
// LRU, issued for batch t+1 while batch t computes.
//
// A sharded gather returns the exact fp32 bits of the resident matrix
// (featstore's contract), and AggregateGCN over the gathered matrix gives
// the bits of the fused pass over the store, so final parameters are
// bit-identical across 1/2/4 ranks, both transports, and against
// TrainDistributed — the pin TestTrainShardedConformance holds.

// ShardedTrainConfig configures sharded sampled mini-batch training.
type ShardedTrainConfig struct {
	DistConfig
	// Transport selects the fabric. Nil runs all NumRanks ranks in this
	// process over a fresh in-process fabric. A single-rank endpoint (TCP)
	// runs rank Transport.Self() in this process; the caller launches one
	// process per rank. The transport stays owned by the caller.
	Transport comm.Transport
	// PartitionSeed seeds the deterministic partitioning every rank derives
	// identically (default 1, matching serve's shard mode).
	PartitionSeed int64
	// CacheBytes budgets the per-rank LRU of fetched halo feature rows;
	// ≤ 0 disables caching.
	CacheBytes int64
}

// TrainSharded runs data-parallel sampled mini-batch training with
// owner-sharded features. It returns the same DistResult TrainDistributed
// does (deterministic Loss/Steps/SampledWork, final Params, TestAcc agreed
// by all ranks) plus per-rank halo-fetch stats.
func TrainSharded(ds *datasets.Dataset, cfg ShardedTrainConfig) (*DistResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Transport != nil && cfg.Transport.Size() != cfg.NumRanks {
		return nil, fmt.Errorf("minibatch: transport spans %d ranks, NumRanks is %d",
			cfg.Transport.Size(), cfg.NumRanks)
	}
	if cfg.PartitionSeed == 0 {
		cfg.PartitionSeed = 1
	}

	// Every rank derives the identical owner table: a pure function of the
	// dataset and seed.
	pt, err := partition.Partition(ds.G, partition.Libra{Seed: cfg.PartitionSeed}, cfg.NumRanks, cfg.PartitionSeed)
	if err != nil {
		return nil, fmt.Errorf("minibatch: shard partitioning: %w", err)
	}
	owners := pt.Owners()

	return runRanks(cfg.DistConfig, cfg.Transport, func(world *comm.World) (*DistResult, error) {
		rank := world.Self()
		store, err := featstore.NewSharded(featstore.ShardedConfig{
			Transport:  world.Transport(),
			Owners:     owners,
			Features:   ds.Features,
			CacheBytes: cfg.CacheBytes,
		})
		if err != nil {
			return nil, err
		}
		defer store.Close()
		res, err := trainRank(ds, cfg.DistConfig, world, func(s *Sample) (spmm.FeatRows, []int32, error) {
			frontier := s.InputFrontier()
			x, err := store.GatherSplit(frontier, featstore.SplitByOwner(frontier, owners, cfg.NumRanks))
			return spmm.RowsOf(x), nil, err
		})
		if err != nil {
			return nil, err
		}
		res.HaloStats = make([]featstore.ShardedStats, cfg.NumRanks)
		res.HaloStats[rank] = store.Stats()
		return res, nil
	})
}
