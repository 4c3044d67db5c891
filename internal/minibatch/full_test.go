package minibatch

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/graph"
	"distgnn/internal/model"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

func fullTestGraph(t *testing.T) *graph.CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	edges := make([]graph.Edge, 600)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(80)), Dst: int32(rng.Intn(80))}
	}
	return graph.MustCSR(80, edges)
}

func TestFullSampleCoversEveryInNeighborInCSROrder(t *testing.T) {
	g := fullTestGraph(t)
	seeds := []int32{3, 17, 42, 3} // duplicate seed must be handled
	s := FullSample(g, seeds, 2)
	if len(s.Blocks) != 2 || len(s.Frontiers) != 3 {
		t.Fatalf("blocks=%d frontiers=%d", len(s.Blocks), len(s.Frontiers))
	}
	for h, blk := range s.Blocks {
		dst := s.Frontiers[h]
		src := s.Frontiers[h+1]
		if blk.NumDst != len(dst) || blk.NumSrc != len(src) {
			t.Fatalf("hop %d: NumDst=%d/%d NumSrc=%d/%d", h, blk.NumDst, len(dst), blk.NumSrc, len(src))
		}
		// dst ⊆ src with matching prefix identity.
		for i, gv := range dst {
			if src[blk.SelfIdx[i]] != gv {
				t.Fatalf("hop %d: SelfIdx[%d] resolves to %d, want %d", h, i, src[blk.SelfIdx[i]], gv)
			}
		}
		// Every dst's block neighbor list is its full CSR list, in order.
		for i, gv := range dst {
			nbr := g.InNeighbors(int(gv))
			lo, hi := blk.Indptr[i], blk.Indptr[i+1]
			if int(hi-lo) != len(nbr) {
				t.Fatalf("hop %d dst %d: %d block edges, CSR has %d", h, gv, hi-lo, len(nbr))
			}
			for p := lo; p < hi; p++ {
				if src[blk.Indices[p]] != nbr[p-lo] {
					t.Fatalf("hop %d dst %d pos %d: src %d, CSR %d",
						h, gv, p-lo, src[blk.Indices[p]], nbr[p-lo])
				}
			}
		}
	}
}

// TestAggregateGCNFullBlockMatchesKernelBitwise pins the serving contract:
// one full-neighborhood block aggregation equals the full-graph unblocked
// spmm kernel plus self-add plus norm scaling, bit for bit.
func TestAggregateGCNFullBlockMatchesKernelBitwise(t *testing.T) {
	g := fullTestGraph(t)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(g.NumVertices, 24)
	tensor.RandomNormal(x, rng, 1)

	// Reference: the model's forward path (plan kernel, self add, norm).
	ref := tensor.New(g.NumVertices, x.Cols)
	plan := spmm.NewPlan(g, spmm.DefaultOptions(1))
	if err := plan.Run(x, ref); err != nil {
		t.Fatal(err)
	}
	ref.Add(x)
	norm := make([]float32, g.NumVertices)
	for v := range norm {
		norm[v] = 1 / float32(1+g.InDegree(v))
	}
	ref.ScaleRows(norm)

	// Serving path: all vertices as seeds through one full block.
	seeds := make([]int32, g.NumVertices)
	for v := range seeds {
		seeds[v] = int32(v)
	}
	s := FullSample(g, seeds, 1)
	blk := s.Blocks[0]
	x2 := tensor.New(blk.NumSrc, x.Cols)
	for i, gv := range s.Frontiers[1] {
		copy(x2.Row(i), x.Row(int(gv)))
	}
	got := model.AggregateGCN(blk.Indptr, blk.Indices, blk.SelfIdx, spmm.RowsOf(x2), nil)

	for i := range seeds {
		rRow, gRow := ref.Row(i), got.Row(i)
		for j := range rRow {
			if math.Float32bits(rRow[j]) != math.Float32bits(gRow[j]) {
				t.Fatalf("vertex %d col %d: block %v != kernel %v", i, j, gRow[j], rRow[j])
			}
		}
	}
}
