package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBlockedPartitionsEdgesBySourceRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := MustCSR(100, randomEdges(rng, 100, 800))
	for _, nB := range []int{1, 2, 4, 7, 16, 100} {
		b := NewBlocked(g, nB)
		if b.TotalEdges() != g.NumEdges {
			t.Fatalf("nB=%d: edges lost, %d vs %d", nB, b.TotalEdges(), g.NumEdges)
		}
		bs := (g.NumVertices + len(b.Blocks) - 1) / len(b.Blocks)
		for bi, blk := range b.Blocks {
			lo, hi := bi*bs, (bi+1)*bs
			for v := 0; v < blk.NumVertices; v++ {
				for _, u := range blk.InNeighbors(v) {
					if int(u) < lo || int(u) >= hi {
						t.Fatalf("nB=%d block %d: source %d outside [%d,%d)", nB, bi, u, lo, hi)
					}
				}
			}
		}
	}
}

func TestBlockedUnionRecoversAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	g := MustCSR(50, randomEdges(rng, 50, 400))
	b := NewBlocked(g, 8)
	for v := 0; v < g.NumVertices; v++ {
		var union []int32
		for _, blk := range b.Blocks {
			union = append(union, blk.InNeighbors(v)...)
		}
		orig := append([]int32(nil), g.InNeighbors(v)...)
		if len(union) != len(orig) {
			t.Fatalf("vertex %d: neighbor count %d vs %d", v, len(union), len(orig))
		}
		// Per-block lists are sorted; block ranges are increasing, so the
		// concatenation must equal the sorted original list.
		for i := range union {
			if union[i] != orig[i] {
				t.Fatalf("vertex %d: neighbor %d: %d vs %d", v, i, union[i], orig[i])
			}
		}
	}
}

func TestBlockedEdgeIDsPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := randomEdges(rng, 30, 150)
	g := MustCSR(30, edges)
	b := NewBlocked(g, 5)
	for _, blk := range b.Blocks {
		for v := 0; v < blk.NumVertices; v++ {
			nbr := blk.InNeighbors(v)
			ids := blk.InEdgeIDs(v)
			for i := range nbr {
				e := edges[ids[i]]
				if e.Src != nbr[i] || int(e.Dst) != v {
					t.Fatalf("block edge id %d maps to %v, want src=%d dst=%d", ids[i], e, nbr[i], v)
				}
			}
		}
	}
}

func TestBlockedClampsBlockCount(t *testing.T) {
	g := MustCSR(4, []Edge{{0, 1}})
	b := NewBlocked(g, 100)
	if len(b.Blocks) != 4 {
		t.Fatalf("%d blocks, want clamp to 4", len(b.Blocks))
	}
	b1 := NewBlocked(g, 0)
	if len(b1.Blocks) != 1 {
		t.Fatalf("%d blocks, want clamp to 1", len(b1.Blocks))
	}
}

func TestBlockedPropertyEdgeConservation(t *testing.T) {
	f := func(seed int64, nBraw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		g := MustCSR(n, randomEdges(rng, n, rng.Intn(300)))
		nB := 1 + int(nBraw)%20
		b := NewBlocked(g, nB)
		return b.TotalEdges() == g.NumEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
