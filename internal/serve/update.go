package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"distgnn/internal/comm"
	"distgnn/internal/graph"
	"distgnn/internal/obs"
)

// update.go is the serving side of the graph mutation plane: POST /update
// accepts a batch of edge inserts, applies it to this rank's snapshot
// chain, invalidates exactly the cached entries whose k-hop neighborhood
// the batch touched, and — in shard mode — fans the batch out to every
// peer rank over the comm.ReqRep plane so the replicated topology stays
// identical fleet-wide (the partition still decides which rank's feature
// plane owns each touched vertex; the topology, cheap next to features,
// is replicated just as it is for reads). The invalidation contract that
// keeps exact-mode serving bit-identical to a cold server on the
// post-mutation graph:
//
//   - inserting edge u→v changes only v's in-neighbor list, so the
//     logits of seed s change iff v lies within NumLayers-1 forward hops
//     of s on the post-mutation graph;
//   - the embedding cache therefore drops every vertex reachable from a
//     touched destination within NumLayers-1 hops along out-edges
//     (computed over a reverse-graph mutation layer maintained in
//     lockstep), and nothing else;
//   - the feature caches drop the touched destinations themselves (raw
//     input features are not changed by edge inserts — the drop keeps the
//     contract simple and auditable), and nothing else.
//
// A writer/publisher lock closes the stale-publish race: without it, a
// batch inferred on the pre-update snapshot could publish its rows to the
// embedding cache after the update's invalidation sweep, resurrecting
// stale logits. Publishers re-check the topology epoch under the read
// lock; the updater inserts and invalidates under the write lock.

// defaultCompactThreshold is the overlay size (in edges) past which an
// update triggers a background compaction when Config.CompactThreshold
// is zero.
const defaultCompactThreshold = 4096

// updateState is the per-server mutation plane: the forward mutation
// layer the engine serves from, the reverse layer the invalidation
// fan-out is computed over, and the update counters.
type updateState struct {
	// mu orders cache invalidation against embedding-cache publication:
	// applyUpdate holds it exclusively across insert+invalidate, and
	// inferAndCache publishes under the read side after re-checking the
	// epoch it started from.
	mu   sync.RWMutex
	mut  *graph.Mutable // forward graph: the serving topology
	rev  *graph.Mutable // reverse graph: out-edge fan-out for invalidation
	hops int            // invalidation depth, NumLayers-1

	updates atomic.Int64
	edges   atomic.Int64
	invEmb  atomic.Int64
	invFeat atomic.Int64
}

// newUpdateState builds the mutation plane over the engine's dataset and
// points the engine's per-request topology at it.
func newUpdateState(eng *Engine, cfg Config) *updateState {
	threshold := cfg.CompactThreshold
	if threshold == 0 {
		threshold = defaultCompactThreshold
	}
	u := &updateState{
		mut:  graph.NewMutable(eng.ds.G, threshold),
		rev:  graph.NewMutable(eng.ds.G.Reverse(), threshold),
		hops: eng.spec.NumLayers - 1,
	}
	eng.mut = u.mut
	return u
}

// UpdateRequest is the POST /update payload: a batch of directed edges,
// each a [src, dst] pair, applied atomically (readers see the pre-batch
// or post-batch graph, never a prefix).
type UpdateRequest struct {
	Edges [][2]int32 `json:"edges"`
}

// UpdateRankAck is one rank's application receipt inside UpdateResponse.
type UpdateRankAck struct {
	Rank                  int    `json:"rank"`
	Epoch                 uint64 `json:"epoch"`
	OverlayEdges          int    `json:"overlay_edges"`
	InvalidatedEmbeddings int    `json:"invalidated_embeddings"`
	InvalidatedFeatures   int    `json:"invalidated_features"`
}

// UpdateResponse is the POST /update reply: the entry rank's view plus
// one ack per rank that applied the batch (just the entry rank itself in
// single-process mode).
type UpdateResponse struct {
	Applied               int             `json:"applied"`
	Epoch                 uint64          `json:"epoch"`
	OverlayEdges          int             `json:"overlay_edges"`
	Compactions           int64           `json:"compactions"`
	InvalidatedEmbeddings int             `json:"invalidated_embeddings"`
	InvalidatedFeatures   int             `json:"invalidated_features"`
	Ranks                 []UpdateRankAck `json:"ranks"`
}

// StreamStats is the /stats mutation-plane block, present when updates
// are enabled.
type StreamStats struct {
	Epoch                 uint64 `json:"epoch"`
	BaseEdges             int    `json:"base_edges"`
	OverlayEdges          int    `json:"overlay_edges"`
	OverlayVertices       int    `json:"overlay_vertices"`
	Compactions           int64  `json:"compactions"`
	Updates               int64  `json:"updates"`
	EdgesApplied          int64  `json:"edges_applied"`
	InvalidatedEmbeddings int64  `json:"invalidated_embeddings"`
	InvalidatedFeatures   int64  `json:"invalidated_features"`
}

// streamStats snapshots the mutation-plane counters for /stats.
func (u *updateState) streamStats() StreamStats {
	s := u.mut.Snapshot()
	return StreamStats{
		Epoch:                 s.Epoch(),
		BaseEdges:             s.Base().NumEdges,
		OverlayEdges:          s.OverlayEdges(),
		OverlayVertices:       s.OverlayVertices(),
		Compactions:           u.mut.Compactions(),
		Updates:               u.updates.Load(),
		EdgesApplied:          u.edges.Load(),
		InvalidatedEmbeddings: u.invEmb.Load(),
		InvalidatedFeatures:   u.invFeat.Load(),
	}
}

// applyUpdate applies one edge batch to this rank: forward and reverse
// inserts, then the targeted cache invalidation, all under the exclusive
// side of the publisher lock so no stale embedding row can be published
// after the sweep.
func (s *Server) applyUpdate(edges []graph.Edge) (UpdateRankAck, error) {
	u := s.upd
	u.mu.Lock()
	defer u.mu.Unlock()
	snap, err := u.mut.Insert(edges)
	if err != nil {
		return UpdateRankAck{}, err
	}
	revEdges := make([]graph.Edge, len(edges))
	for i, e := range edges {
		revEdges[i] = graph.Edge{Src: e.Dst, Dst: e.Src}
	}
	revSnap, err := u.rev.Insert(revEdges)
	if err != nil {
		// Unreachable: the forward insert validated the same endpoints.
		return UpdateRankAck{}, fmt.Errorf("serve: reverse insert: %w", err)
	}

	touched := uniqueDsts(edges)
	affected := affectedVertices(revSnap, touched, u.hops)
	invEmb := 0
	for _, v := range affected {
		if s.emb.Remove(v) {
			invEmb++
		}
	}
	eng := s.engine.Load()
	invFeat := eng.invalidateFeatures(touched)
	if s.shard != nil {
		invFeat += s.shard.fs.InvalidateRemote(touched)
	}

	u.updates.Add(1)
	u.edges.Add(int64(len(edges)))
	u.invEmb.Add(int64(invEmb))
	u.invFeat.Add(int64(invFeat))

	rank := -1
	if s.shard != nil {
		rank = s.shard.fs.Rank()
	}
	return UpdateRankAck{
		Rank:                  rank,
		Epoch:                 snap.Epoch(),
		OverlayEdges:          snap.OverlayEdges(),
		InvalidatedEmbeddings: invEmb,
		InvalidatedFeatures:   invFeat,
	}, nil
}

// uniqueDsts returns the distinct destination vertices of a batch — the
// vertices whose in-neighbor lists the batch changed.
func uniqueDsts(edges []graph.Edge) []int32 {
	seen := make(map[int32]bool, len(edges))
	var out []int32
	for _, e := range edges {
		if !seen[e.Dst] {
			seen[e.Dst] = true
			out = append(out, e.Dst)
		}
	}
	return out
}

// affectedVertices returns every vertex whose exact-mode output depends
// on a touched in-neighbor list: the touched vertices themselves plus
// everything reachable from them within hops steps along forward
// out-edges — which are exactly the reverse graph's in-edges, so the BFS
// runs over the reverse snapshot (post-mutation, so fan-out through edges
// inserted in the same batch is covered).
func affectedVertices(rev *graph.Snapshot, touched []int32, hops int) []int32 {
	seen := make(map[int32]bool, len(touched))
	out := make([]int32, 0, len(touched))
	for _, v := range touched {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	frontier := out
	for h := 0; h < hops; h++ {
		var next []int32
		for _, v := range frontier {
			for _, w := range rev.InNeighbors(int(v)) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					out = append(out, w)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return out
}

// maxUpdateBody caps the POST /update request body. 1 MiB holds a batch of
// tens of thousands of edges — far above the 16-edge batches the stream
// clients send — while keeping one request from buffering unbounded memory.
const maxUpdateBody = 1 << 20

// handleUpdate is POST /update: decode, validate, apply locally, fan out
// to the fleet (shard mode), reply with per-rank receipts. Gated by
// Config.EnableUpdates; bodies over maxUpdateBody get 413.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if s.upd == nil {
		httpError(w, http.StatusForbidden, fmt.Errorf("updates disabled (start with -updates)"))
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST /update"))
		return
	}
	var req UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("update payload exceeds %d bytes", maxUpdateBody))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad update payload: %v", err))
		return
	}
	if len(req.Edges) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("update batch is empty"))
		return
	}
	n := s.engine.Load().topo().NumV()
	edges := make([]graph.Edge, len(req.Edges))
	for i, e := range req.Edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("edge %d (%d→%d) out of range [0,%d)", i, e[0], e[1], n))
			return
		}
		edges[i] = graph.Edge{Src: e[0], Dst: e[1]}
	}
	tc := obs.OpenRequest(r, s.tracer, s.obsm != nil)
	local, err := s.applyUpdate(edges)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	acks := []UpdateRankAck{local}
	if s.shard != nil {
		peerAcks, err := s.fanOutUpdate(edges, tc)
		if err != nil {
			// Local state advanced but a peer did not confirm — surface it
			// loudly; the caller retries (inserts are idempotent only at the
			// multigraph level, so operators treat 502 as "fleet diverged,
			// re-drive or restart").
			httpError(w, http.StatusBadGateway, err)
			return
		}
		acks = append(acks, peerAcks...)
		sort.Slice(acks, func(i, j int) bool { return acks[i].Rank < acks[j].Rank })
	}
	if id := tc.ID(); id != 0 {
		w.Header().Set(obs.TraceHeader, obs.FormatTraceID(id))
	}
	writeJSON(w, UpdateResponse{
		Applied:               len(edges),
		Epoch:                 local.Epoch,
		OverlayEdges:          local.OverlayEdges,
		Compactions:           s.upd.mut.Compactions(),
		InvalidatedEmbeddings: local.InvalidatedEmbeddings,
		InvalidatedFeatures:   local.InvalidatedFeatures,
		Ranks:                 acks,
	})
	s.finishRequest(tc, "update", -1, http.StatusOK)
}

// fanOutUpdate broadcasts the batch to every peer rank over the shared
// ReqRep plane and collects their receipts. The topology is replicated, so
// every rank must apply every edge; the frame rides the same endpoint the
// halo fetches use, behind the update opcode.
func (s *Server) fanOutUpdate(edges []graph.Edge, tc *obs.TraceCtx) ([]UpdateRankAck, error) {
	fs := s.shard.fs
	payload := make([]int32, 0, 1+2*len(edges))
	payload = append(payload, int32(len(edges)))
	for _, e := range edges {
		payload = append(payload, e.Src, e.Dst)
	}
	var acks []UpdateRankAck
	for p := 0; p < fs.Shards(); p++ {
		if p == fs.Rank() {
			continue
		}
		stop := tc.StartSpan(fmt.Sprintf("update_rank%d", p))
		rep, err := fs.CallUpdate(p, tc.ID(), payload)
		stop()
		if err != nil {
			return nil, fmt.Errorf("update fan-out to rank %d: %w", p, err)
		}
		ack, err := decodeUpdateAck(rep)
		if err != nil {
			return nil, fmt.Errorf("update ack from rank %d: %w", p, err)
		}
		acks = append(acks, ack)
	}
	return acks, nil
}

// handleUpdateFrame is the ReqRep receiver for fan-out frames from the
// entry rank: decode the batch, apply it locally, return this rank's
// receipt. Registered on the featstore endpoint by NewShard.
func (s *Server) handleUpdateFrame(from int, trace uint64, req []float32) ([]float32, error) {
	if s.upd == nil {
		return nil, fmt.Errorf("serve: rank received update frame but updates are disabled")
	}
	ids := comm.F32ToInt32s(req)
	if len(ids) < 1 {
		return nil, fmt.Errorf("serve: empty update frame from rank %d", from)
	}
	n := int(ids[0])
	if n < 1 || len(ids) != 1+2*n {
		return nil, fmt.Errorf("serve: malformed update frame from rank %d: %d edges, %d words",
			from, n, len(ids))
	}
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: ids[1+2*i], Dst: ids[2+2*i]}
	}
	ack, err := s.applyUpdate(edges)
	if err != nil {
		return nil, err
	}
	return comm.Int32sToF32(encodeUpdateAck(ack)), nil
}

// encodeUpdateAck packs a receipt into the int32 wire words decodeUpdateAck
// reads: rank, epoch (lo/hi), overlay edges, invalidated embeddings,
// invalidated features.
func encodeUpdateAck(a UpdateRankAck) []int32 {
	return []int32{
		int32(a.Rank),
		int32(uint32(a.Epoch)), int32(uint32(a.Epoch >> 32)),
		int32(a.OverlayEdges),
		int32(a.InvalidatedEmbeddings),
		int32(a.InvalidatedFeatures),
	}
}

func decodeUpdateAck(rep []float32) (UpdateRankAck, error) {
	ids := comm.F32ToInt32s(rep)
	if len(ids) != 6 {
		return UpdateRankAck{}, fmt.Errorf("ack has %d words, want 6", len(ids))
	}
	return UpdateRankAck{
		Rank:                  int(ids[0]),
		Epoch:                 uint64(uint32(ids[1])) | uint64(uint32(ids[2]))<<32,
		OverlayEdges:          int(ids[3]),
		InvalidatedEmbeddings: int(ids[4]),
		InvalidatedFeatures:   int(ids[5]),
	}, nil
}

// registerStreamMetrics exposes the mutation-plane counters on the obs
// registry: overlay size and epoch as gauges, compactions / updates /
// invalidations as counters.
func (s *Server) registerStreamMetrics(reg *obs.Registry) {
	u := s.upd
	gaugeFn(reg, "distgnn_stream_overlay_edges",
		"Edges in the mutation overlay (drops to 0 at compaction).",
		func() int64 { return int64(u.mut.Snapshot().OverlayEdges()) })
	gaugeFn(reg, "distgnn_stream_epoch",
		"Current graph snapshot epoch.",
		func() int64 { return int64(u.mut.Snapshot().Epoch()) })
	counterFn(reg, "distgnn_stream_compactions_total",
		"Overlay compactions folded into the base CSR.", u.mut.Compactions)
	counterFn(reg, "distgnn_stream_updates_total",
		"Update batches applied on this rank.", u.updates.Load)
	counterFn(reg, "distgnn_stream_edges_applied_total",
		"Edges inserted on this rank.", u.edges.Load)
	counterFn(reg, obs.Label("distgnn_stream_invalidated_total", "cache", "embedding"),
		"Cache entries invalidated by updates, by cache.", u.invEmb.Load)
	counterFn(reg, obs.Label("distgnn_stream_invalidated_total", "cache", "feature"),
		"Cache entries invalidated by updates, by cache.", u.invFeat.Load)
}
