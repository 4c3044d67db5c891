package featstore

import (
	"fmt"
	"sync/atomic"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
	"distgnn/internal/parallel"
	"distgnn/internal/tensor"
)

// Sharded is the distributed feature store: each rank materializes a
// compact slab of exactly the feature rows it owns (one owner per vertex,
// derived from the deterministic partitioning by every rank independently),
// and serves everything else over the comm fabric. A gather splits the
// frontier by owner: local positions copy straight out of the slab, halo
// positions are served from the per-rank LRU (when one is budgeted) or
// batched into one comm.ReqRep fetch per owner rank, fanned out
// concurrently. Only feature *sourcing* is distributed — the gathered fp32
// bits are identical to a single-process gather, which is the contract both
// the sharded serving engine and the sharded sampled trainer build their
// bit-identity pins on.
//
// Construction registers this rank as a responder on the transport's
// reserved serve tag range (comm.ServeTagBase), so peers' fetches are
// answered for the lifetime of the store; Close stops issuing new fetches
// and reaps the endpoint. All methods are safe for concurrent use.
type Sharded struct {
	rank, shards int
	owners       []int32
	slab         *tensor.Matrix // owned feature rows, compact
	slabRow      []int32        // global vertex → slab row, -1 when not owned
	featDim      int
	rr           *comm.ReqRep
	remote       *Cache[int32, []float32]
	tracer       *obs.Tracer // nil disables peer-served trace records
	// updateHandler receives mutation frames multiplexed onto the fetch
	// endpoint (the transport allows one ReqRep responder per rank, so the
	// update plane shares it via the opcode word). Nil until the serving
	// layer registers one with SetUpdateHandler.
	updateHandler atomic.Pointer[comm.ReqRepHandler]

	haloHits     atomic.Int64
	haloMisses   atomic.Int64
	haloFetches  atomic.Int64
	haloVertices atomic.Int64
	haloBytes    atomic.Int64
	served       atomic.Int64
	servedVerts  atomic.Int64
	servedBytes  atomic.Int64
}

// ShardedConfig configures one rank's slice of a sharded feature store.
type ShardedConfig struct {
	// Transport is this rank's endpoint of the established comm fabric
	// (TCP or in-process); the store's rank and the fleet size are its
	// Self() and Size(). It stays owned by the caller; Close does not
	// close it.
	Transport comm.Transport
	// Owners maps every global vertex ID to its owner rank in
	// [0, Transport.Size()).
	// Every rank must derive the identical table (it is a pure function of
	// the deterministic partitioning).
	Owners []int32
	// Features is the full fp32 feature matrix this rank slices its owned
	// rows from at construction. Everything after that copy reads the slab
	// or the fabric, never Features — a deployment with a real feature
	// store would materialize only the owned slice.
	Features *tensor.Matrix
	// CacheBytes budgets the per-rank LRU of halo features fetched from
	// peers; ≤ 0 disables caching (every halo position fetches).
	CacheBytes int64
	// Tracer, when set, records a "halo" trace entry for every traced
	// fetch this rank answers, under the requester's trace ID — the
	// cross-rank half of end-to-end request attribution. Optional.
	Tracer *obs.Tracer
}

// ShardedStats is a snapshot of one sharded store's counters.
type ShardedStats struct {
	// OwnedVertices is the number of feature rows resident in the slab.
	OwnedVertices int
	// HaloHits/HaloMisses count gather-time halo lookups served from the
	// remote cache vs fetched over the fabric. HaloFetches is the RPC count
	// (one per owner rank per gather); HaloFetchedVertices the vertex rows
	// those RPCs carried.
	HaloHits            int64
	HaloMisses          int64
	HaloFetches         int64
	HaloFetchedVertices int64
	// HaloFetchedBytes is the reply payload volume those RPCs carried in.
	HaloFetchedBytes int64
	// PeerServedFetches/PeerServedVertices count the fetch RPCs this rank
	// answered for its peers; PeerServedBytes the reply payload volume out.
	PeerServedFetches  int64
	PeerServedVertices int64
	PeerServedBytes    int64
	// RemoteCache snapshots the halo LRU.
	RemoteCache CacheStats
}

// NewSharded materializes this rank's owned feature slice and starts
// answering peers' halo fetches on the transport's reserved tag range.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("featstore: sharded store needs a comm.Transport")
	}
	rank, shards := cfg.Transport.Self(), cfg.Transport.Size()
	if cfg.Features == nil {
		return nil, fmt.Errorf("featstore: sharded store needs the feature matrix")
	}
	if len(cfg.Owners) != cfg.Features.Rows {
		return nil, fmt.Errorf("featstore: owner table covers %d vertices, features have %d rows",
			len(cfg.Owners), cfg.Features.Rows)
	}
	st := &Sharded{
		rank: rank, shards: shards,
		owners:  cfg.Owners,
		featDim: cfg.Features.Cols,
		slabRow: make([]int32, cfg.Features.Rows),
		remote:  NewCache[int32, []float32](cfg.CacheBytes, 0),
		tracer:  cfg.Tracer,
	}

	// Materialize this rank's feature slice. Everything after this copy
	// reads the slab, never cfg.Features — the store's view of non-owned
	// features exists only behind the fetch protocol.
	owned := 0
	for v := range st.slabRow {
		o := cfg.Owners[v]
		if o < 0 || int(o) >= shards {
			return nil, fmt.Errorf("featstore: vertex %d owned by shard %d outside [0,%d)",
				v, o, shards)
		}
		if o == int32(rank) {
			st.slabRow[v] = int32(owned)
			owned++
		} else {
			st.slabRow[v] = -1
		}
	}
	st.slab = tensor.New(owned, st.featDim)
	for v, row := range st.slabRow {
		if row >= 0 {
			copy(st.slab.Row(int(row)), cfg.Features.Row(v))
		}
	}

	var err error
	st.rr, err = comm.NewReqRep(cfg.Transport, st.handleFetch)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Rank returns this store's rank.
func (st *Sharded) Rank() int { return st.rank }

// Shards returns the fleet size.
func (st *Sharded) Shards() int { return st.shards }

// Close stops issuing new halo fetches and reaps the request/reply
// endpoint. The transport stays owned by the caller. Idempotent.
func (st *Sharded) Close() { st.rr.Close() }

// InvalidateRemote drops the given vertices from the halo LRU and returns
// how many entries were actually resident — the mutation plane's targeted
// invalidation (edge inserts do not change raw features, but dropping the
// touched rows keeps the cache contract simple and auditable).
func (st *Sharded) InvalidateRemote(ids []int32) int {
	n := 0
	for _, v := range ids {
		if st.remote.Remove(v) {
			n++
		}
	}
	return n
}

// Stats snapshots the store's counters.
func (st *Sharded) Stats() ShardedStats {
	return ShardedStats{
		OwnedVertices:       st.slab.Rows,
		HaloHits:            st.haloHits.Load(),
		HaloMisses:          st.haloMisses.Load(),
		HaloFetches:         st.haloFetches.Load(),
		HaloFetchedVertices: st.haloVertices.Load(),
		HaloFetchedBytes:    st.haloBytes.Load(),
		PeerServedFetches:   st.served.Load(),
		PeerServedVertices:  st.servedVerts.Load(),
		PeerServedBytes:     st.servedBytes.Load(),
		RemoteCache:         st.remote.Stats(),
	}
}

// updateOpcode marks a request frame as a graph-mutation message rather
// than a halo fetch. Fetch frames are vertex-ID lists and every vertex ID
// is ≥ 0, so a negative leading word is unambiguous.
const updateOpcode int32 = -2

// SetUpdateHandler registers the receiver for mutation frames sent with
// CallUpdate. The serving layer installs its update-apply hook here after
// construction; frames arriving before registration are rejected with an
// error (the sender retries or fails loudly — never silently dropped).
func (st *Sharded) SetUpdateHandler(fn comm.ReqRepHandler) {
	st.updateHandler.Store(&fn)
}

// CallUpdate sends a mutation frame (bit-packed int32 payload) to peer's
// update handler over the shared fetch endpoint and returns the reply.
func (st *Sharded) CallUpdate(peer int, trace uint64, payload []int32) ([]float32, error) {
	frame := make([]int32, 0, len(payload)+1)
	frame = append(frame, updateOpcode)
	frame = append(frame, payload...)
	return st.rr.Call(peer, trace, comm.Int32sToF32(frame))
}

// handleFetch answers a peer's halo feature fetch: the request is vertex
// IDs (bit-packed int32s), the reply their owned feature rows concatenated
// in request order. A nonzero trace ID (the requester's) produces a "halo"
// trace record on this rank's tracer, so a tail request's halo hops show up
// in the owner rank's ring under the same ID the frontend minted.
// Mutation frames (leading updateOpcode word) are dispatched to the
// registered update handler instead.
func (st *Sharded) handleFetch(from int, trace uint64, req []float32) ([]float32, error) {
	start := time.Now()
	ids := comm.F32ToInt32s(req)
	if len(ids) > 0 && ids[0] == updateOpcode {
		fn := st.updateHandler.Load()
		if fn == nil {
			return nil, fmt.Errorf("featstore: rank %d has no update handler registered (frame from rank %d)",
				st.rank, from)
		}
		return (*fn)(from, trace, req[1:])
	}
	out := make([]float32, 0, len(ids)*st.featDim)
	for _, v := range ids {
		if v < 0 || int(v) >= len(st.slabRow) || st.slabRow[v] < 0 {
			return nil, fmt.Errorf("featstore: rank %d does not own vertex %d (fetch from rank %d)",
				st.rank, v, from)
		}
		out = append(out, st.slab.Row(int(st.slabRow[v]))...)
	}
	st.served.Add(1)
	st.servedVerts.Add(int64(len(ids)))
	st.servedBytes.Add(int64(4 * len(out)))
	if trace != 0 && st.tracer.Enabled() {
		d := time.Since(start)
		st.tracer.Record(obs.Trace{
			TraceID:  obs.FormatTraceID(trace),
			Endpoint: "halo_fetch",
			Vertex:   -1,
			Peer:     from,
			Status:   200,
			StartNs:  start.UnixNano(),
			DurUs:    d.Microseconds(),
			Spans: []obs.Span{{
				Name:  fmt.Sprintf("serve_fetch_%dv", len(ids)),
				DurUs: d.Microseconds(),
			}},
		})
	}
	return out, nil
}

// splitByOwner partitions frontier positions by owning shard: the result's
// entry p lists every index i with owners[frontier[i]] == p, in frontier
// order. k is the shard count; owners must cover every frontier vertex
// with values in [0, k).
func splitByOwner(frontier []int32, owners []int32, k int) [][]int32 {
	out := make([][]int32, k)
	for i, v := range frontier {
		out[owners[v]] = append(out[owners[v]], int32(i))
	}
	return out
}

// Gather materializes the frontier's feature rows: local positions from the
// slab, halo positions from the remote cache or batched into one fetch per
// owner rank, fanned out concurrently. A non-nil tc gets one
// halo_rtt_rank<p> span per peer fetch, and tc's trace ID rides the fetch
// frames so owner ranks attribute the served work to the same request;
// pass nil when untraced. The gathered bits are identical either way —
// tracing only observes.
func (st *Sharded) Gather(frontier []int32, tc *obs.TraceCtx) (*tensor.Matrix, error) {
	split := splitByOwner(frontier, st.owners, st.shards)
	x := tensor.New(len(frontier), st.featDim)

	for _, i := range split[st.rank] {
		copy(x.Row(int(i)), st.slab.Row(int(st.slabRow[frontier[i]])))
	}

	var peers []int
	var reqs [][]float32
	var missPos [][]int32
	for p := 0; p < st.shards; p++ {
		if p == st.rank || len(split[p]) == 0 {
			continue
		}
		miss := split[p]
		if st.remote != nil {
			miss = miss[:0:0]
			for _, i := range split[p] {
				if row, ok := st.remote.Get(frontier[i]); ok {
					copy(x.Row(int(i)), row)
				} else {
					miss = append(miss, i)
				}
			}
			st.haloHits.Add(int64(len(split[p]) - len(miss)))
		}
		st.haloMisses.Add(int64(len(miss)))
		if len(miss) == 0 {
			continue
		}
		ids := make([]int32, len(miss))
		for j, i := range miss {
			ids[j] = frontier[i]
		}
		peers = append(peers, p)
		reqs = append(reqs, comm.Int32sToF32(ids))
		missPos = append(missPos, miss)
	}
	if len(peers) == 0 {
		return x, nil
	}
	// One concurrent call per owner rank; a traced request adds a per-peer
	// RTT span and carries its trace ID on the wire.
	replies := make([][]float32, len(peers))
	errs := make([]error, len(peers))
	var g parallel.Group
	for k := range peers {
		g.Go(func() {
			done := func() {}
			if tc != nil {
				done = tc.StartSpan(fmt.Sprintf("halo_rtt_rank%d", peers[k]))
			}
			replies[k], errs[k] = st.rr.Call(peers[k], tc.ID(), reqs[k])
			done()
		})
	}
	g.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("featstore: halo fetch: %w", err)
		}
	}
	for k, rep := range replies {
		pos := missPos[k]
		if len(rep) != len(pos)*st.featDim {
			return nil, fmt.Errorf("featstore: halo fetch from rank %d returned %d floats for %d vertices × %d features",
				peers[k], len(rep), len(pos), st.featDim)
		}
		for j, i := range pos {
			row := rep[j*st.featDim : (j+1)*st.featDim]
			copy(x.Row(int(i)), row)
			if st.remote != nil {
				st.remote.Put(frontier[i], append([]float32(nil), row...), 4*st.featDim)
			}
		}
		st.haloFetches.Add(1)
		st.haloVertices.Add(int64(len(pos)))
		st.haloBytes.Add(int64(4 * len(rep)))
	}
	return x, nil
}
