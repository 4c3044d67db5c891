package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// mutableEqualsRebuilt asserts the conformance invariant: every vertex's
// InNeighbors under the snapshot equals the list a CSR rebuilt from
// scratch over the same edge set stores, and the degree/edge counts agree.
func mutableEqualsRebuilt(t *testing.T, s *Snapshot, numV int, edges []Edge) {
	t.Helper()
	ref := MustCSR(numV, edges)
	if s.NumV() != numV {
		t.Fatalf("NumV %d, want %d", s.NumV(), numV)
	}
	if s.NumE() != len(edges) {
		t.Fatalf("NumE %d, want %d", s.NumE(), len(edges))
	}
	for v := 0; v < numV; v++ {
		got := s.InNeighbors(v)
		want := ref.InNeighbors(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("vertex %d neighbor %d: %d, want %d (got %v want %v)",
					v, i, got[i], want[i], got, want)
			}
		}
		if d := len(s.InNeighbors(v)); d != ref.InDegree(v) {
			t.Fatalf("vertex %d degree %d, want %d", v, d, ref.InDegree(v))
		}
	}
}

// TestMutableInsertMatchesRebuild drives a batch-insert sequence and pins
// the snapshot against a from-scratch rebuild after every batch, then
// after an explicit compaction, then after post-compaction inserts.
func TestMutableInsertMatchesRebuild(t *testing.T) {
	const n = 12
	base := []Edge{{1, 0}, {2, 0}, {0, 1}, {3, 2}, {2, 3}, {5, 4}, {4, 5}}
	m := NewMutable(MustCSR(n, base), 0)
	all := append([]Edge(nil), base...)

	batches := [][]Edge{
		{{7, 0}, {0, 0}},         // prepend and append into an existing list
		{{2, 0}, {2, 0}},         // duplicate edges (multigraph) and duplicate-of-base
		{{6, 6}, {11, 10}},       // previously isolated vertices
		{{1, 0}, {3, 0}, {9, 2}}, // interleave into existing lists
		{{10, 11}, {11, 10}},     // mutual edges
	}
	for bi, b := range batches {
		snap, err := m.Insert(b)
		if err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		all = append(all, b...)
		mutableEqualsRebuilt(t, snap, n, all)
		if snap.Epoch() != uint64(bi+1) {
			t.Fatalf("batch %d: epoch %d, want %d", bi, snap.Epoch(), bi+1)
		}
	}

	pre := m.Snapshot()
	post := m.Compact()
	if m.Compactions() != 1 {
		t.Fatalf("compactions %d, want 1", m.Compactions())
	}
	if post.OverlayEdges() != 0 || post.OverlayVertices() != 0 {
		t.Fatalf("post-compaction overlay not empty: %d edges, %d vertices",
			post.OverlayEdges(), post.OverlayVertices())
	}
	if post.Epoch() <= pre.Epoch() {
		t.Fatalf("compaction epoch %d not past %d", post.Epoch(), pre.Epoch())
	}
	mutableEqualsRebuilt(t, post, n, all)
	// The pre-compaction snapshot must be unchanged — old readers keep a
	// consistent view.
	mutableEqualsRebuilt(t, pre, n, all)

	// Inserts keep working on the compacted base.
	more := []Edge{{0, 7}, {7, 0}, {4, 4}}
	snap, err := m.Insert(more)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, more...)
	mutableEqualsRebuilt(t, snap, n, all)

	// Compacting an already-clean graph is a no-op: same snapshot, no
	// epoch bump, no compaction counted.
	clean := m.Compact()
	if again := m.Compact(); again != clean {
		t.Fatal("no-op compaction published a new snapshot")
	}
	if m.Compactions() != 2 {
		t.Fatalf("compactions %d, want 2", m.Compactions())
	}
}

// TestMutableRejectsOutOfRange pins insert validation, and that a failed
// batch publishes nothing.
func TestMutableRejectsOutOfRange(t *testing.T) {
	m := NewMutable(MustCSR(4, []Edge{{0, 1}}), 0)
	before := m.Snapshot()
	for _, bad := range [][]Edge{
		{{0, 4}}, {{4, 0}}, {{-1, 0}}, {{0, -1}}, {{0, 1}, {9, 9}},
	} {
		if _, err := m.Insert(bad); err == nil {
			t.Fatalf("insert %v accepted", bad)
		}
	}
	if m.Snapshot() != before {
		t.Fatal("failed insert published a snapshot")
	}
}

// TestMutableAddVertices pins vertex inserts: new vertices are isolated,
// immediately usable as edge endpoints, and survive compaction.
func TestMutableAddVertices(t *testing.T) {
	base := []Edge{{0, 1}, {1, 0}}
	m := NewMutable(MustCSR(2, base), 0)
	snap := m.AddVertices(3)
	if snap.NumV() != 5 {
		t.Fatalf("NumV %d, want 5", snap.NumV())
	}
	for v := 2; v < 5; v++ {
		if d := len(snap.InNeighbors(v)); d != 0 {
			t.Fatalf("new vertex %d has degree %d", v, d)
		}
	}
	all := append([]Edge(nil), base...)
	add := []Edge{{0, 4}, {4, 2}, {3, 4}}
	snap, err := m.Insert(add)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, add...)
	mutableEqualsRebuilt(t, snap, 5, all)
	mutableEqualsRebuilt(t, m.Compact(), 5, all)
	if m.Snapshot().Base().NumVertices != 5 {
		t.Fatalf("compacted base has %d vertices, want 5", m.Snapshot().Base().NumVertices)
	}
}

// TestMutableAutoCompaction pins the threshold trigger: once the overlay
// crosses the configured size a background compaction folds it away.
func TestMutableAutoCompaction(t *testing.T) {
	m := NewMutable(MustCSR(8, nil), 4)
	rng := rand.New(rand.NewSource(7))
	var all []Edge
	for i := 0; i < 10; i++ {
		e := Edge{Src: int32(rng.Intn(8)), Dst: int32(rng.Intn(8))}
		if _, err := m.Insert([]Edge{e}); err != nil {
			t.Fatal(err)
		}
		all = append(all, e)
	}
	m.Wait()
	if m.Compactions() == 0 {
		t.Fatal("threshold crossed but no compaction ran")
	}
	mutableEqualsRebuilt(t, m.Snapshot(), 8, all)
	if ov := m.Snapshot().OverlayEdges(); ov >= 4 {
		t.Fatalf("overlay still holds %d edges past the threshold", ov)
	}
}

// TestSnapshotEdgesRoundTrip pins Edges/Rebuild: the materialized edge
// list reproduces the graph, and Rebuild's Indices match the snapshot.
func TestSnapshotEdgesRoundTrip(t *testing.T) {
	m := NewMutable(MustCSR(6, []Edge{{0, 1}, {2, 1}, {1, 2}}), 0)
	if _, err := m.Insert([]Edge{{3, 1}, {5, 0}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	rebuilt := s.Rebuild()
	if rebuilt.NumEdges != s.NumE() || rebuilt.NumVertices != s.NumV() {
		t.Fatalf("rebuild shape (%d,%d) != snapshot (%d,%d)",
			rebuilt.NumVertices, rebuilt.NumEdges, s.NumV(), s.NumE())
	}
	for v := 0; v < s.NumV(); v++ {
		if !reflect.DeepEqual(append([]int32{}, rebuilt.InNeighbors(v)...),
			append([]int32{}, s.InNeighbors(v)...)) {
			t.Fatalf("vertex %d: rebuild %v != snapshot %v", v, rebuilt.InNeighbors(v), s.InNeighbors(v))
		}
	}
}
