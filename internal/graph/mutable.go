package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// mutable.go is the delta-segment mutation layer: edge and vertex inserts
// land in a per-vertex sorted-adjacency overlay on top of the immutable
// base CSR, readers take epoch-versioned immutable Snapshots, and a
// Compact merges the accumulated overlay into a fresh CSR. The layer is
// built around one invariant the serving stack depends on: a Snapshot
// enumerates every vertex's in-neighbors in exactly the source-sorted
// order a CSR rebuilt from scratch over the same edge set would — so
// exact-mode aggregation over a mutated snapshot reproduces, bit for bit,
// the float-op sequence of a cold engine on the rebuilt graph.

// Topology is the read-side graph interface shared by the immutable CSR
// and mutation-layer snapshots: everything exact k-hop block extraction
// needs. *CSR and *Snapshot both satisfy it.
type Topology interface {
	// NumV returns the vertex count.
	NumV() int
	// InNeighbors returns the sources of in-edges of v, sorted by source
	// vertex ID (shared storage — callers must not mutate).
	InNeighbors(v int) []int32
}

// Snapshot is one consistent, immutable view of a Mutable graph: the base
// CSR plus the overlay of merged neighbor lists for every vertex touched
// since the last compaction. Snapshots are safe for concurrent use and
// stay valid (and unchanged) forever — later inserts and compactions
// publish new snapshots rather than mutating this one.
type Snapshot struct {
	epoch   uint64
	base    *CSR
	numV    int
	overlay map[int32][]int32 // full merged sorted in-neighbor list per touched dst
	extra   int               // edges beyond the base CSR
}

// Epoch returns the snapshot's version: strictly increasing across
// Insert/AddVertices/Compact publications on the owning Mutable.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumV returns the vertex count (base plus added vertices).
func (s *Snapshot) NumV() int { return s.numV }

// NumE returns the directed edge count (base plus overlay).
func (s *Snapshot) NumE() int { return s.base.NumEdges + s.extra }

// OverlayEdges returns how many inserted edges the overlay holds beyond
// the base CSR — the quantity compaction thresholds and the serving
// metrics watch.
func (s *Snapshot) OverlayEdges() int { return s.extra }

// OverlayVertices returns how many vertices have an overlay entry.
func (s *Snapshot) OverlayVertices() int { return len(s.overlay) }

// Base returns the underlying CSR (read-only).
func (s *Snapshot) Base() *CSR { return s.base }

// InNeighbors returns v's in-neighbor sources in the same source-sorted
// order a CSR rebuilt over the snapshot's edge set would store them:
// the overlay entry when v was touched since the last compaction, the
// base CSR's list otherwise. Shared storage — callers must not mutate.
func (s *Snapshot) InNeighbors(v int) []int32 {
	if nbr, ok := s.overlay[int32(v)]; ok {
		return nbr
	}
	if v < s.base.NumVertices {
		return s.base.InNeighbors(v)
	}
	return nil // added vertex with no in-edges yet
}

// Edges materializes the snapshot's full edge list in the order NewCSR
// lays edges out: by destination, then by source. It is the input Compact
// rebuilds from, so the rebuilt Indices equal the snapshot's InNeighbors
// lists, as a from-scratch NewCSR over the same edge multiset would.
func (s *Snapshot) Edges() []Edge {
	edges := make([]Edge, 0, s.NumE())
	for v := 0; v < s.numV; v++ {
		for _, u := range s.InNeighbors(v) {
			edges = append(edges, Edge{Src: u, Dst: int32(v)})
		}
	}
	return edges
}

// Rebuild constructs a fresh CSR over the snapshot's exact edge set —
// what a cold process loading the post-mutation graph would build. Its
// Indices arrays match the snapshot's InNeighbors enumeration vertex for
// vertex (the conformance property the mutation tests pin). Its EdgeIDs
// number the edges in Edges() order, so EdgeIDs[p] = p, not the IDs of
// the base graph's edge list; nothing on the serving path reads those.
func (s *Snapshot) Rebuild() *CSR {
	return MustCSR(s.numV, s.Edges())
}

// Mutable is an evolving graph: an immutable base CSR under a
// copy-on-write overlay. Writers (Insert, AddVertices, Compact) serialize
// on an internal mutex and publish a new Snapshot per call; readers load
// the current Snapshot wait-free and keep a consistent view for as long
// as they hold it. When the overlay exceeds the compaction threshold a
// background Compact folds it into a fresh base CSR.
type Mutable struct {
	mu        sync.Mutex // serializes writers and compaction
	snap      atomic.Pointer[Snapshot]
	threshold int // overlay edges that trigger background compaction; ≤0 disables

	compacting  atomic.Bool
	compactions atomic.Int64
	wg          sync.WaitGroup // outstanding background compactions
}

// NewMutable wraps base in a mutation layer. compactThreshold is the
// overlay edge count past which an Insert triggers a background Compact;
// ≤ 0 disables automatic compaction (Compact can still be called
// explicitly). The base CSR is shared, never copied or mutated.
func NewMutable(base *CSR, compactThreshold int) *Mutable {
	m := &Mutable{threshold: compactThreshold}
	m.snap.Store(&Snapshot{base: base, numV: base.NumVertices})
	return m
}

// Snapshot returns the current consistent view. Wait-free; safe for
// concurrent use with writers.
func (m *Mutable) Snapshot() *Snapshot { return m.snap.Load() }

// Compactions returns how many compactions have been published.
func (m *Mutable) Compactions() int64 { return m.compactions.Load() }

// Insert applies a batch of edge inserts and returns the snapshot that
// contains them. The whole batch becomes visible atomically: readers see
// either the pre-batch or the post-batch view, never a prefix. Duplicate
// edges are allowed (the graph is a multigraph, matching NewCSR).
func (m *Mutable) Insert(edges []Edge) (*Snapshot, error) {
	if len(edges) == 0 {
		return m.Snapshot(), nil
	}
	m.mu.Lock()
	cur := m.snap.Load()
	for i, e := range edges {
		if e.Src < 0 || int(e.Src) >= cur.numV || e.Dst < 0 || int(e.Dst) >= cur.numV {
			m.mu.Unlock()
			return nil, fmt.Errorf("graph: insert %d (%d→%d) out of range [0,%d)", i, e.Src, e.Dst, cur.numV)
		}
	}
	// Copy-on-write: clone the overlay map shallowly, then clone and
	// re-merge only the touched destinations' lists. Untouched lists stay
	// shared with prior snapshots, which is what keeps reads wait-free.
	overlay := make(map[int32][]int32, len(cur.overlay)+len(edges))
	for v, nbr := range cur.overlay {
		overlay[v] = nbr
	}
	byDst := make(map[int32][]int32, len(edges))
	for _, e := range edges {
		byDst[e.Dst] = append(byDst[e.Dst], e.Src)
	}
	for dst, srcs := range byDst {
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		var old []int32
		if nbr, ok := overlay[dst]; ok {
			old = nbr
		} else if int(dst) < cur.base.NumVertices {
			old = cur.base.InNeighbors(int(dst))
		}
		overlay[dst] = mergeSorted(old, srcs)
	}
	next := &Snapshot{
		epoch:   cur.epoch + 1,
		base:    cur.base,
		numV:    cur.numV,
		overlay: overlay,
		extra:   cur.extra + len(edges),
	}
	m.snap.Store(next)
	m.mu.Unlock()

	if m.threshold > 0 && next.extra >= m.threshold && m.compacting.CompareAndSwap(false, true) {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.compacting.Store(false)
			m.Compact()
		}()
	}
	return next, nil
}

// AddVertices grows the vertex space by n isolated vertices and returns
// the snapshot that contains them. New vertices start with no edges;
// Insert accepts them as endpoints immediately.
func (m *Mutable) AddVertices(n int) *Snapshot {
	if n <= 0 {
		return m.Snapshot()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snap.Load()
	next := &Snapshot{
		epoch:   cur.epoch + 1,
		base:    cur.base,
		numV:    cur.numV + n,
		overlay: cur.overlay,
		extra:   cur.extra,
	}
	m.snap.Store(next)
	return next
}

// Compact folds the overlay into a fresh base CSR and publishes an
// overlay-free snapshot. The rebuilt Indices match the pre-compaction
// snapshot's InNeighbors enumeration exactly, so readers cannot tell a
// compaction happened except through the epoch and OverlayEdges going to
// zero. A no-op (and no epoch bump) when the overlay is empty and no
// vertices were added.
func (m *Mutable) Compact() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.snap.Load()
	if cur.extra == 0 && cur.numV == cur.base.NumVertices {
		return cur
	}
	next := &Snapshot{
		epoch: cur.epoch + 1,
		base:  cur.Rebuild(),
		numV:  cur.numV,
	}
	m.snap.Store(next)
	m.compactions.Add(1)
	return next
}

// Wait blocks until any in-flight background compaction has finished —
// for tests and orderly shutdown.
func (m *Mutable) Wait() { m.wg.Wait() }

// mergeSorted merges two source-sorted neighbor lists into a fresh slice,
// taking from old first on ties so the base CSR's relative order is
// preserved (ties are equal values, so the merged *sequence* is identical
// either way — keeping old-first just makes the invariant obvious).
func mergeSorted(old, add []int32) []int32 {
	out := make([]int32, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) && j < len(add) {
		if old[i] <= add[j] {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	out = append(out, add[j:]...)
	return out
}
