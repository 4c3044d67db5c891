package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"distgnn/internal/comm"
	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/graph"
	"distgnn/internal/minibatch"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/partition"
	"distgnn/internal/tensor"
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
// (serverpc.go's reserved serve tag range) and cached in a per-rank LRU.
//
// Sharding here is of the serving *data path*: after construction the
// engine reads owned features from the slab and everything else over the
// fabric, never ds.Features. The synthetic datasets this repo runs on are
// regenerated whole in every process (there is nothing to download or
// partially load), so per-process memory still includes the generator's
// full matrix; a deployment with a real feature store would materialize
// only the owned slice and the engine would not notice the difference.
//
// Routing is stateless: every rank derives the same owner table from the
// same deterministic partitioning, so any rank can answer any request —
// requests for vertices owned elsewhere are proxied one hop to the owner,
// whose embedding cache then accumulates that vertex's traffic.

// routedHeader marks a proxied request so routing terminates after one hop
// even if two ranks ever disagreed about ownership.
const routedHeader = "X-Distgnn-Routed"

// PeerAddr names one shard's HTTP endpoint.
type PeerAddr struct {
	Rank int
	Addr string
}

// Router maps vertices to their owner shard and the owner's HTTP address.
// Routing depends only on the owner table — peer lists are keyed by rank,
// so the order peers are supplied in never changes a routing decision.
type Router struct {
	owners []int32
	shards int
	addrs  []string // rank-indexed; empty string = no HTTP endpoint known
}

// NewRouter builds a router over an owner table (one owner in [0, shards)
// per vertex) and an HTTP peer list in any order. Peers are optional: a
// router with no addresses still answers Owner lookups (engine-only use).
func NewRouter(owners []int32, shards int, peers []PeerAddr) (*Router, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: router needs ≥1 shard, got %d", shards)
	}
	for v, o := range owners {
		if o < 0 || int(o) >= shards {
			return nil, fmt.Errorf("serve: vertex %d owned by shard %d outside [0,%d)", v, o, shards)
		}
	}
	r := &Router{owners: owners, shards: shards, addrs: make([]string, shards)}
	for _, p := range peers {
		if p.Rank < 0 || p.Rank >= shards {
			return nil, fmt.Errorf("serve: peer address for rank %d outside [0,%d)", p.Rank, shards)
		}
		if r.addrs[p.Rank] != "" && r.addrs[p.Rank] != p.Addr {
			return nil, fmt.Errorf("serve: conflicting addresses for rank %d: %q and %q",
				p.Rank, r.addrs[p.Rank], p.Addr)
		}
		r.addrs[p.Rank] = p.Addr
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.shards }

// Owner returns the shard that owns vertex v.
func (r *Router) Owner(v int32) int { return int(r.owners[v]) }

// Addr returns rank's HTTP address, or "" when none was supplied.
func (r *Router) Addr(rank int) string {
	if rank < 0 || rank >= len(r.addrs) {
		return ""
	}
	return r.addrs[rank]
}

// ShardConfig configures one rank of a sharded serving fleet.
type ShardConfig struct {
	// Transport is this rank's endpoint of the established comm fabric
	// (TCP or in-process); the engine's rank and the fleet size are its
	// Self() and Size(). It stays owned by the caller; Server.Close does
	// not close it.
	Transport comm.Transport
	// HTTPPeers lists the fleet's HTTP addresses (any order, keyed by
	// rank) so non-owner ranks can proxy requests to the owner. Optional:
	// without it every rank answers every vertex locally.
	HTTPPeers []PeerAddr
	// PartitionSeed seeds the deterministic partitioning every rank must
	// derive identically (default 1).
	PartitionSeed int64
	// Partitioner assigns edges to partitions; default Libra{Seed:
	// PartitionSeed}, the paper's vertex-cut.
	Partitioner partition.Partitioner
	// RemoteCacheBytes budgets the per-rank LRU of halo features fetched
	// from peers; 0 defaults to Config.FeatureCacheBytes, negative
	// disables.
	RemoteCacheBytes int64
}

// ShardStats is the per-shard block of /stats: ownership shape, routing
// traffic, and the halo-fetch hit/miss counters.
type ShardStats struct {
	Rank        int    `json:"rank"`
	Shards      int    `json:"shards"`
	Partitioner string `json:"partitioner"`
	// OwnedVertices / HaloVerticesStatic describe the partition itself:
	// how many vertices this rank owns, and how many clones its partition
	// holds that are owned elsewhere.
	OwnedVertices      int `json:"owned_vertices"`
	HaloVerticesStatic int `json:"halo_vertices_static"`
	// RoutedOut counts requests proxied to their owner rank; RoutedIn
	// counts proxied requests that arrived here.
	RoutedOut int64 `json:"routed_out"`
	RoutedIn  int64 `json:"routed_in"`
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
	PeerServedFetches  int64      `json:"peer_served_fetches"`
	PeerServedVertices int64      `json:"peer_served_vertices"`
	PeerServedBytes    int64      `json:"peer_served_bytes"`
	RemoteCache        CacheStats `json:"remote_cache"`
}

// shardState is one rank's slice of the sharded engine: the shared
// feature-sourcing plane (featstore.Sharded: owned slab, halo fetch
// endpoint, remote LRU) plus the serving-only pieces — the HTTP router, the
// partition's static halo size, and the proxy-traffic counters.
type shardState struct {
	partitioner string
	router      *Router
	g           *graph.CSR // replicated topology, for owned block extraction
	fs          *featstore.Sharded
	haloStatic  int
	net         comm.NetStatsSource // nil when the fabric keeps no counters

	routedOut atomic.Int64
	routedIn  atomic.Int64
}

func newShardState(ds *datasets.Dataset, cfg Config, sc ShardConfig) (*shardState, error) {
	if sc.Transport == nil {
		return nil, fmt.Errorf("serve: shard mode needs a comm.Transport")
	}
	rank, shards := sc.Transport.Self(), sc.Transport.Size()
	if sc.PartitionSeed == 0 {
		sc.PartitionSeed = 1
	}
	if sc.Partitioner == nil {
		sc.Partitioner = partition.Libra{Seed: sc.PartitionSeed}
	}
	pt, err := partition.Partition(ds.G, sc.Partitioner, shards, sc.PartitionSeed)
	if err != nil {
		return nil, fmt.Errorf("serve: shard partitioning: %w", err)
	}
	owners := pt.Owners()
	router, err := NewRouter(owners, shards, sc.HTTPPeers)
	if err != nil {
		return nil, err
	}
	cacheBytes := sc.RemoteCacheBytes
	if cacheBytes == 0 {
		cacheBytes = cfg.FeatureCacheBytes
	}
	fs, err := featstore.NewSharded(featstore.ShardedConfig{
		Transport:  sc.Transport,
		Owners:     owners,
		Features:   ds.Features,
		CacheBytes: cacheBytes,
		Tracer:     cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	st := &shardState{
		partitioner: sc.Partitioner.Name(),
		router:      router,
		g:           ds.G,
		fs:          fs,
		haloStatic:  len(pt.Halo(rank)),
	}
	if src, ok := sc.Transport.(comm.NetStatsSource); ok {
		st.net = src
	}
	return st, nil
}

// stats snapshots the shard counters: the featstore plane's gather/fetch
// counters plus serve's routing traffic, composed into the pinned /stats
// shape.
func (st *shardState) stats() ShardStats {
	fss := st.fs.Stats()
	return ShardStats{
		Rank: st.fs.Rank(), Shards: st.fs.Shards(), Partitioner: st.partitioner,
		OwnedVertices:       fss.OwnedVertices,
		HaloVerticesStatic:  st.haloStatic,
		RoutedOut:           st.routedOut.Load(),
		RoutedIn:            st.routedIn.Load(),
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

// shardFeatures is the sharded featureSource: it reads through the shared
// featstore.Sharded plane (local positions from the owned slab, halo
// positions from the remote cache or one batched fetch per owner rank) and
// adds the serving engine's exact-mode block extraction on top.
type shardFeatures struct {
	st *shardState
}

// sampleExact is the shard engine's exact-mode block extraction: the
// partition-aware FullSampleOwned builds the identical Sample FullSample
// would (the bit-identity contract) and hands the input frontier over
// pre-split by owner, so ownership is resolved once per request. topo is
// the engine's per-request topology view (the frozen CSR, or the mutation
// snapshot the request loaded). A non-nil tc gets sample/gather spans plus
// the per-peer halo RTT spans the traced gather records.
func (sf *shardFeatures) sampleExact(topo graph.Topology, seeds []int32, hops int, tc *obs.TraceCtx) (*minibatch.Sample, *tensor.Matrix, error) {
	fs := sf.st.fs
	stop := tc.StartSpan("sample")
	s, split := minibatch.FullSampleOwned(topo, seeds, hops, fs.Owners(), fs.Shards())
	stop()
	stop = tc.StartSpan("gather")
	x, err := fs.GatherSplitTraced(s.InputFrontier(), split, tc)
	stop()
	return s, x, err
}

// Gather satisfies featureSource for the engine's non-exact paths.
func (sf *shardFeatures) Gather(frontier []int32) (*tensor.Matrix, error) {
	return sf.st.fs.Gather(frontier)
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
	// straight from the resident slab; the remote cache covers the fetch
	// path — so the engine's cache budget is zero.
	eng, err := NewEngine(ds, ModelSpec{
		Arch: cfg.Arch, Hidden: cfg.Hidden, OutDim: cfg.OutDim,
		NumLayers: cfg.NumLayers, NumHeads: cfg.NumHeads,
	}, nil, 0)
	if err != nil {
		return nil, err
	}
	eng.src = &shardFeatures{st: st}
	if err := nn.ReadParams(checkpoint, eng.Params()); err != nil {
		return nil, fmt.Errorf("serve: checkpoint does not match requested model %s: %w "+
			"(distgnn-train prints the hyperparameters next to \"checkpoint written\" — pass the same -arch/-hidden/-layers/-heads here)",
			eng.Spec(), err)
	}
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
