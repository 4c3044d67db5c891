package partition

import (
	"math/rand"
	"testing"
)

// TestOwnersCoverEveryVertexExactlyOnce: the owner table assigns each
// source vertex exactly one partition in [0, K), and the owner always
// holds a clone of the vertex.
func TestOwnersCoverEveryVertexExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 150, 1100)
	for _, k := range []int{1, 2, 4, 8} {
		pt, err := Partition(g, Libra{Seed: 2}, k, 5)
		if err != nil {
			t.Fatal(err)
		}
		owners := pt.Owners()
		if len(owners) != g.NumVertices {
			t.Fatalf("k=%d: owner table covers %d of %d vertices", k, len(owners), g.NumVertices)
		}
		for v, o := range owners {
			if o < 0 || int(o) >= k {
				t.Fatalf("k=%d: vertex %d owned by %d outside [0,%d)", k, v, o, k)
			}
			if pt.LocalOf[o][v] < 0 {
				t.Fatalf("k=%d: vertex %d owned by partition %d which holds no clone of it", k, v, o)
			}
		}
	}
}

// TestOwnerIsRootCloneForSplitVertices pins the ownership rule: split
// vertices are owned by their root clone's partition (the Alg. 4 reduction
// root), non-split vertices by their sole partition.
func TestOwnerIsRootCloneForSplitVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 120, 1000)
	pt, err := Partition(g, Libra{Seed: 3}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	owners := pt.Owners()
	split := make(map[int32]SplitVertex, len(pt.Splits))
	for _, sv := range pt.Splits {
		split[sv.Global] = sv
	}
	if len(split) == 0 {
		t.Fatal("partitioning produced no split vertices; graph too small for the test")
	}
	for v := 0; v < g.NumVertices; v++ {
		if sv, ok := split[int32(v)]; ok {
			if owners[v] != sv.Clones[0].Part {
				t.Fatalf("split vertex %d owned by %d, root clone lives in %d",
					v, owners[v], sv.Clones[0].Part)
			}
			continue
		}
		// Non-split: exactly one partition holds it, and that is the owner.
		count := 0
		for p := 0; p < pt.K; p++ {
			if pt.LocalOf[p][v] >= 0 {
				count++
				if owners[v] != int32(p) {
					t.Fatalf("non-split vertex %d owned by %d but lives in %d", v, owners[v], p)
				}
			}
		}
		if count != 1 {
			t.Fatalf("non-split vertex %d has %d clones", v, count)
		}
	}
}

// TestOwnersDeterministic: two identical partitionings derive identical
// owner tables — the property that lets every serving rank compute
// ownership independently with no coordination.
func TestOwnersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGraph(rng, 100, 800)
	a, err := Partition(g, Libra{Seed: 4}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Partition(g, Libra{Seed: 4}, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := a.Owners(), b.Owners()
	for v := range oa {
		if oa[v] != ob[v] {
			t.Fatalf("vertex %d: owner %d vs %d across identical partitionings", v, oa[v], ob[v])
		}
	}
}

// TestHaloIsPresentMinusOwned: a partition's halo is exactly the set of
// vertices it holds a clone of but does not own, and owned + halo = local.
func TestHaloIsPresentMinusOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGraph(rng, 130, 1200)
	pt, err := Partition(g, Libra{Seed: 6}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	owners := pt.Owners()
	counts := make([]int, pt.K)
	for _, o := range owners {
		counts[o]++
	}
	totalOwned := 0
	for p := 0; p < pt.K; p++ {
		halo := pt.Halo(p)
		seen := make(map[int32]bool, len(halo))
		prev := int32(-1)
		for _, v := range halo {
			if v <= prev {
				t.Fatalf("partition %d halo not in ascending order", p)
			}
			prev = v
			seen[v] = true
			if pt.LocalOf[p][v] < 0 {
				t.Fatalf("partition %d halo vertex %d has no clone there", p, v)
			}
			if owners[v] == int32(p) {
				t.Fatalf("partition %d halo contains owned vertex %d", p, v)
			}
		}
		// Every non-owned clone must appear in the halo.
		for _, gv := range pt.Parts[p].GlobalID {
			if owners[gv] != int32(p) && !seen[gv] {
				t.Fatalf("partition %d: clone of %d missing from halo", p, gv)
			}
		}
		if counts[p]+len(halo) != pt.Parts[p].NumLocal() {
			t.Fatalf("partition %d: owned %d + halo %d != local %d",
				p, counts[p], len(halo), pt.Parts[p].NumLocal())
		}
		totalOwned += counts[p]
	}
	if totalOwned != g.NumVertices {
		t.Fatalf("owned counts sum to %d, graph has %d vertices", totalOwned, g.NumVertices)
	}
	if pt.Halo(-1) != nil || pt.Halo(pt.K) != nil {
		t.Fatal("out-of-range Halo must be nil")
	}
}
