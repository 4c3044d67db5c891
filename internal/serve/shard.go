package serve

import (
	"fmt"
	"io"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/partition"
	"distgnn/internal/spmm"
)

// shard.go is partition-parallel serving: the engine split across ranks so
// inference scales past one process the same way training does. Each rank
// owns one vertex partition (internal/partition's vertex-cut, reduced to a
// unique owner per vertex) and serves features only from that partition's
// slice; the graph topology — cheap next to features — is replicated so
// exact k-hop block extraction enumerates neighbors in the very same CSR
// order as the single-process engine, which is what keeps exact-mode
// logits bit-identical across 1, 2, or 4 shards, both transports, and both
// architectures. The one stage that differs is the input-frontier feature
// gather: positions owned locally read the resident slab, halo positions
// are batched into one tagged fetch per owner rank over the comm.Transport
// (serverpc.go's reserved serve tag range) and cached in a per-rank LRU
// budgeted by Config.FeatureCacheBytes.
//
// Sharding here is of the serving *data path*: after construction the
// engine reads owned features from the slab and everything else over the
// fabric, never ds.Features. The synthetic datasets this repo runs on are
// regenerated whole in every process (there is nothing to download or
// partially load), so per-process memory still includes the generator's
// full matrix; a deployment with a real feature store would materialize
// only the owned slice and the engine would not notice the difference.

// ShardConfig configures one rank of a sharded serving fleet.
type ShardConfig struct {
	// Transport is this rank's endpoint of the established comm fabric
	// (TCP or in-process); the engine's rank and the fleet size are its
	// Self() and Size(). It stays owned by the caller; Server.Close does
	// not close it.
	Transport comm.Transport
	// PartitionSeed seeds the deterministic partitioning every rank must
	// derive identically (default 1): Libra, the paper's vertex-cut.
	PartitionSeed int64
}

// ShardStats is the per-shard block of /stats: ownership shape and the
// halo-fetch hit/miss counters.
type ShardStats struct {
	Rank        int    `json:"rank"`
	Shards      int    `json:"shards"`
	Partitioner string `json:"partitioner"`
	// OwnedVertices / HaloVerticesStatic describe the partition itself:
	// how many vertices this rank owns, and how many clones its partition
	// holds that are owned elsewhere.
	OwnedVertices      int `json:"owned_vertices"`
	HaloVerticesStatic int `json:"halo_vertices_static"`
	// HaloHits/HaloMisses count gather-time halo feature lookups served
	// from the remote cache vs fetched over the fabric. HaloFetches is the
	// RPC count (one per owner rank per gather); HaloFetchedVertices the
	// vertex rows those RPCs carried.
	HaloHits            int64 `json:"halo_hits"`
	HaloMisses          int64 `json:"halo_misses"`
	HaloFetches         int64 `json:"halo_fetches"`
	HaloFetchedVertices int64 `json:"halo_fetched_vertices"`
	HaloFetchedBytes    int64 `json:"halo_fetched_bytes"`
	// PeerServedFetches/PeerServedVertices count the fetch RPCs this rank
	// answered for its peers; PeerServedBytes the reply payload volume out.
	PeerServedFetches  int64                `json:"peer_served_fetches"`
	PeerServedVertices int64                `json:"peer_served_vertices"`
	PeerServedBytes    int64                `json:"peer_served_bytes"`
	RemoteCache        featstore.CacheStats `json:"remote_cache"`
}

// shardState is one rank's slice of the sharded engine: the shared
// feature-sourcing plane (featstore.Sharded: owned slab, halo fetch
// endpoint, remote LRU) plus the serving-only pieces — the partitioner's
// name and the partition's static halo size.
type shardState struct {
	partitioner string
	fs          *featstore.Sharded
	haloStatic  int
	net         comm.NetStatsSource // nil when the fabric keeps no counters
}

func newShardState(ds *datasets.Dataset, cfg Config, sc ShardConfig) (*shardState, error) {
	if sc.Transport == nil {
		return nil, fmt.Errorf("serve: shard mode needs a comm.Transport")
	}
	rank, shards := sc.Transport.Self(), sc.Transport.Size()
	if sc.PartitionSeed == 0 {
		sc.PartitionSeed = 1
	}
	part := partition.Libra{Seed: sc.PartitionSeed}
	pt, err := partition.Partition(ds.G, part, shards, sc.PartitionSeed)
	if err != nil {
		return nil, fmt.Errorf("serve: shard partitioning: %w", err)
	}
	fs, err := featstore.NewSharded(featstore.ShardedConfig{
		Transport:  sc.Transport,
		Owners:     pt.Owners(),
		Features:   ds.Features,
		CacheBytes: cfg.FeatureCacheBytes,
		Tracer:     cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	st := &shardState{
		partitioner: part.Name(),
		fs:          fs,
		haloStatic:  len(pt.Halo(rank)),
	}
	if src, ok := sc.Transport.(comm.NetStatsSource); ok {
		st.net = src
	}
	return st, nil
}

// stats snapshots the shard counters: the featstore plane's gather/fetch
// counters composed into the pinned /stats shape.
func (st *shardState) stats() ShardStats {
	fss := st.fs.Stats()
	return ShardStats{
		Rank: st.fs.Rank(), Shards: st.fs.Shards(), Partitioner: st.partitioner,
		OwnedVertices:       fss.OwnedVertices,
		HaloVerticesStatic:  st.haloStatic,
		HaloHits:            fss.HaloHits,
		HaloMisses:          fss.HaloMisses,
		HaloFetches:         fss.HaloFetches,
		HaloFetchedVertices: fss.HaloFetchedVertices,
		HaloFetchedBytes:    fss.HaloFetchedBytes,
		PeerServedFetches:   fss.PeerServedFetches,
		PeerServedVertices:  fss.PeerServedVertices,
		PeerServedBytes:     fss.PeerServedBytes,
		RemoteCache:         fss.RemoteCache,
	}
}

// NewShard builds one rank of a sharded serving fleet: the same
// checkpoint-loading, coalescing, caching HTTP server New builds, but with
// the engine's feature gather split across the fleet. Shard mode is
// exact-only — the bit-identity contract it exists for has no sampled
// counterpart — so cfg.Fanouts must be empty.
func NewShard(ds *datasets.Dataset, checkpoint io.Reader, cfg Config, sc ShardConfig) (*Server, error) {
	if len(cfg.Fanouts) > 0 {
		return nil, fmt.Errorf("serve: shard mode is exact-only (drop -fanouts)")
	}
	cfg.applyDefaults()
	st, err := newShardState(ds, cfg, sc)
	if err != nil {
		return nil, err
	}
	// Shard mode has no local gathered-feature cache — local rows come
	// straight from the resident slab, and cfg.FeatureCacheBytes budgets
	// the store's halo LRU instead — so the engine's cache budget is zero.
	// Every gather goes through the sharded store, never ds.Features.
	eng, err := loadEngine(ds, checkpoint, cfg, nil, 0)
	if err != nil {
		return nil, err
	}
	eng.gather, eng.feats = st.fs.Gather, spmm.FeatRows{}
	s := newServer(eng, cfg)
	s.shard = st
	if s.upd != nil {
		// Receive the fleet's update fan-out frames on the shared featstore
		// endpoint: every rank applies every batch so the replicated
		// topology stays identical fleet-wide.
		st.fs.SetUpdateHandler(s.handleUpdateFrame)
	}
	if cfg.Metrics != nil {
		s.registerShardMetrics(cfg.Metrics)
	}
	return s, nil
}
