package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
)

func randomGraph(rng *rand.Rand, n, m int) *graph.CSR {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return graph.MustCSR(n, edges)
}

func TestLibraAssignsEveryEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 200, 1500)
	for _, k := range []int{1, 2, 4, 8, 70, 128} { // 70 and 128 span several bitset words
		assign := Libra{Seed: 1}.Assign(g, k)
		if len(assign) != g.NumEdges {
			t.Fatalf("k=%d: %d assignments for %d edges", k, len(assign), g.NumEdges)
		}
		for i, p := range assign {
			if p < 0 || int(p) >= k {
				t.Fatalf("k=%d: edge %d assigned to %d", k, i, p)
			}
		}
		// The same Seed must give the same assignment: every rank derives
		// the owner table from it without coordination.
		again := Libra{Seed: 1}.Assign(g, k)
		for i := range assign {
			if assign[i] != again[i] {
				t.Fatalf("k=%d: edge %d assigned to %d, then to %d with the same seed", k, i, assign[i], again[i])
			}
		}
	}
}

func TestBuildPreservesEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 100, 900)
	pt, err := Partition(g, Libra{Seed: 3}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := make([]bool, g.NumEdges)
	for _, p := range pt.Parts {
		total += p.G.NumEdges
		// Every local edge must map back to a matching global edge.
		globalEdges := g.Edges()
		for v := 0; v < p.G.NumVertices; v++ {
			nbr := p.G.InNeighbors(v)
			ids := p.G.InEdgeIDs(v)
			for i := range nbr {
				ge := globalEdges[p.GlobalEdgeID[ids[i]]]
				if ge.Src != p.GlobalID[nbr[i]] || ge.Dst != p.GlobalID[v] {
					t.Fatalf("part %d: local edge %d→%d maps to global %v", p.ID, nbr[i], v, ge)
				}
				if seen[p.GlobalEdgeID[ids[i]]] {
					t.Fatalf("edge %d appears twice", p.GlobalEdgeID[ids[i]])
				}
				seen[p.GlobalEdgeID[ids[i]]] = true
			}
		}
	}
	if total != g.NumEdges {
		t.Fatalf("edge total %d != %d", total, g.NumEdges)
	}
}

func TestBuildCoversAllVertices(t *testing.T) {
	// Include isolated vertices: 10 extra vertices with no edges.
	rng := rand.New(rand.NewSource(3))
	edges := make([]graph.Edge, 300)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(50)), Dst: int32(rng.Intn(50))}
	}
	g := graph.MustCSR(60, edges)
	pt, err := Partition(g, Libra{Seed: 3}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, 60)
	for _, p := range pt.Parts {
		for _, gv := range p.GlobalID {
			covered[gv] = true
		}
	}
	for v, ok := range covered {
		if !ok {
			t.Fatalf("vertex %d not placed in any partition", v)
		}
	}
}

func TestLocalOfConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 80, 500)
	pt, err := Partition(g, Libra{Seed: 5}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pID, p := range pt.Parts {
		for local, global := range p.GlobalID {
			if pt.LocalOf[pID][global] != int32(local) {
				t.Fatalf("part %d: LocalOf[%d]=%d, want %d", pID, global, pt.LocalOf[pID][global], local)
			}
		}
		for global, local := range pt.LocalOf[pID] {
			if local >= 0 && int(p.GlobalID[local]) != global {
				t.Fatalf("part %d: GlobalID[%d]=%d, want %d", pID, local, p.GlobalID[local], global)
			}
		}
	}
}

func TestSplitVerticesHaveMultipleClones(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 60, 600)
	pt, err := Partition(g, Libra{Seed: 5}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Splits) == 0 {
		t.Fatal("dense random graph on 4 parts must split some vertices")
	}
	for _, sv := range pt.Splits {
		if len(sv.Clones) < 2 {
			t.Fatalf("split vertex %d has %d clones", sv.Global, len(sv.Clones))
		}
		seen := map[int32]bool{}
		for _, c := range sv.Clones {
			if seen[c.Part] {
				t.Fatalf("split vertex %d has two clones in partition %d", sv.Global, c.Part)
			}
			seen[c.Part] = true
			if pt.Parts[c.Part].GlobalID[c.Local] != sv.Global {
				t.Fatalf("clone %v of vertex %d maps to %d", c, sv.Global,
					pt.Parts[c.Part].GlobalID[c.Local])
			}
		}
	}
}

func TestReplicationFactorBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 100, 800)
	for _, k := range []int{2, 4, 8} {
		pt, err := Partition(g, Libra{Seed: 1}, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		rf := pt.ReplicationFactor()
		if rf < 1 || rf > float64(k) {
			t.Fatalf("k=%d: replication factor %v out of [1,%d]", k, rf, k)
		}
	}
}

func TestLibraBeatsRandomEdgeOnReplication(t *testing.T) {
	d := datasets.MustLoad("ogbn-products-sim", 0.25)
	k := 8
	libra, err := Partition(d.G, Libra{Seed: 1}, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	random, err := Partition(d.G, RandomEdge{Seed: 1}, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if libra.ReplicationFactor() >= random.ReplicationFactor() {
		t.Fatalf("libra RF %.3f must beat random RF %.3f",
			libra.ReplicationFactor(), random.ReplicationFactor())
	}
}

func TestLibraBalancesEdges(t *testing.T) {
	d := datasets.MustLoad("reddit-sim", 0.25)
	pt, err := Partition(d.G, Libra{Seed: 1}, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b := pt.EdgeBalance(); b > 1.2 {
		t.Fatalf("libra edge balance %v exceeds 1.2", b)
	}
}

func TestReplicationGrowsWithPartitions(t *testing.T) {
	// Table 4's shape: replication factor increases with partition count.
	d := datasets.MustLoad("reddit-sim", 0.25)
	var prev float64
	for _, k := range []int{2, 4, 8, 16} {
		pt, err := Partition(d.G, Libra{Seed: 1}, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		rf := pt.ReplicationFactor()
		if rf < prev {
			t.Fatalf("replication factor decreased from %v to %v at k=%d", prev, rf, k)
		}
		prev = rf
	}
}

func TestClusteredGraphHasLowerReplication(t *testing.T) {
	// Proteins-sim exhibits natural clusters → lower RF than reddit-sim
	// at the same partition count (§6.3 of the paper).
	reddit := datasets.MustLoad("reddit-sim", 0.25)
	proteins := datasets.MustLoad("proteins-sim", 0.25)
	k := 8
	rp, err := Partition(reddit.G, Libra{Seed: 1}, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Partition(proteins.G, Libra{Seed: 1}, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pp.ReplicationFactor() >= rp.ReplicationFactor() {
		t.Fatalf("proteins RF %.3f must be below reddit RF %.3f",
			pp.ReplicationFactor(), rp.ReplicationFactor())
	}
}

func TestSinglePartitionDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30, 100)
	pt, err := Partition(g, Libra{Seed: 1}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Splits) != 0 {
		t.Fatal("k=1 must produce no split vertices")
	}
	if rf := pt.ReplicationFactor(); rf != 1 {
		t.Fatalf("k=1 replication factor %v", rf)
	}
	if pt.Parts[0].G.NumEdges != g.NumEdges {
		t.Fatal("k=1 must keep all edges in one part")
	}
}

func TestBuildRejectsBadAssignment(t *testing.T) {
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if _, err := Build(g, []int32{0}, 2, 1); err == nil {
		t.Fatal("expected error for short assignment")
	}
	if _, err := Build(g, []int32{0, 5}, 2, 1); err == nil {
		t.Fatal("expected error for out-of-range partition")
	}
}

func TestHashVertexColocatesDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 50, 400)
	assign := HashVertex{}.Assign(g, 4)
	byDst := map[int32]int32{}
	for i, e := range g.Edges() {
		if p, ok := byDst[e.Dst]; ok && p != assign[i] {
			t.Fatalf("destination %d edges in partitions %d and %d", e.Dst, p, assign[i])
		}
		byDst[e.Dst] = assign[i]
	}
}

func TestSplitVertexFractionInRange(t *testing.T) {
	d := datasets.MustLoad("am-sim", 0.25)
	pt, err := Partition(d.G, Libra{Seed: 1}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p, f := range pt.SplitVertexFraction() {
		if f < 0 || f > 1 {
			t.Fatalf("part %d split fraction %v", p, f)
		}
	}
}

func TestPartitioningPropertyEdgeConservation(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(200))
		k := 1 + int(kRaw)%6
		pt, err := Partition(g, Libra{Seed: seed}, k, seed)
		if err != nil {
			return false
		}
		total := 0
		for _, p := range pt.Parts {
			total += p.G.NumEdges
		}
		return total == g.NumEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
