package minibatch

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"distgnn/internal/graph"
)

// The map-based block extraction the dense interner replaced, kept as the
// oracle: FullSample and Sampler.Sample must equal it element for element.

func refIntern(local map[int32]int32, next *[]int32, g int32) int32 {
	if id, ok := local[g]; ok {
		return id
	}
	id := int32(len(*next))
	*next = append(*next, g)
	local[g] = id
	return id
}

func refExpandFull(g graph.Topology, dst []int32) (*Block, []int32) {
	local := make(map[int32]int32, 2*len(dst))
	var next []int32
	blk := &Block{NumDst: len(dst), SelfIdx: make([]int32, len(dst))}
	for i, gv := range dst {
		blk.SelfIdx[i] = refIntern(local, &next, gv)
	}
	blk.Indptr = make([]int32, len(dst)+1)
	for i, gv := range dst {
		for _, u := range g.InNeighbors(int(gv)) {
			blk.Indices = append(blk.Indices, refIntern(local, &next, u))
		}
		blk.Indptr[i+1] = int32(len(blk.Indices))
	}
	blk.NumSrc = len(next)
	return blk, next
}

// refSamplePick is samplePick as it was before it took a buffer: a fresh
// slice per call, the same RNG draws in the same order.
func refSamplePick(rng *rand.Rand, n, k int) []int32 {
	if n <= k {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	if n > floydThreshold*k {
		out := make([]int32, 0, k)
		for j := n - k; j < n; j++ {
			t := int32(rng.Intn(j + 1))
			if slices.Contains(out, t) {
				out = append(out, int32(j))
			} else {
				out = append(out, t)
			}
		}
		return out
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

func refExpand(g *graph.CSR, rng *rand.Rand, dst []int32, fanout int) (*Block, []int32) {
	local := make(map[int32]int32, 2*len(dst))
	var next []int32
	blk := &Block{NumDst: len(dst), SelfIdx: make([]int32, len(dst))}
	for i, gv := range dst {
		blk.SelfIdx[i] = refIntern(local, &next, gv)
	}
	blk.Indptr = make([]int32, len(dst)+1)
	for i, gv := range dst {
		nbr := g.InNeighbors(int(gv))
		for _, p := range refSamplePick(rng, len(nbr), fanout) {
			blk.Indices = append(blk.Indices, refIntern(local, &next, nbr[p]))
		}
		blk.Indptr[i+1] = int32(len(blk.Indices))
	}
	blk.NumSrc = len(next)
	return blk, next
}

// refSample runs hops rounds of expand from seeds, assembling the Sample
// as Sampler.Sample and FullSample do.
func refSample(seeds []int32, hops int, expand func(dst []int32, h int) (*Block, []int32)) *Sample {
	out := &Sample{Frontiers: [][]int32{append([]int32(nil), seeds...)}}
	for h := 0; h < hops; h++ {
		blk, next := expand(out.Frontiers[h], h)
		out.Blocks = append(out.Blocks, blk)
		out.Frontiers = append(out.Frontiers, next)
	}
	return out
}

func refFullSample(g graph.Topology, seeds []int32, hops int) *Sample {
	return refSample(seeds, hops, func(dst []int32, _ int) (*Block, []int32) { return refExpandFull(g, dst) })
}

func refSampledSample(g *graph.CSR, fanouts []int, seed int64, seeds []int32) *Sample {
	rng := rand.New(rand.NewSource(seed))
	return refSample(seeds, len(fanouts), func(dst []int32, h int) (*Block, []int32) {
		return refExpand(g, rng, dst, fanouts[h])
	})
}

// sampleDiff returns "" when got equals want element for element, else a
// description of the first difference.
func sampleDiff(got, want *Sample) string {
	if len(got.Frontiers) != len(want.Frontiers) || len(got.Blocks) != len(want.Blocks) {
		return "hop count differs"
	}
	for h, f := range want.Frontiers {
		if !slices.Equal(got.Frontiers[h], f) {
			return fmt.Sprintf("Frontiers[%d] differs", h)
		}
	}
	for h, w := range want.Blocks {
		g := got.Blocks[h]
		switch {
		case g.NumDst != w.NumDst || g.NumSrc != w.NumSrc:
			return fmt.Sprintf("block %d NumDst/NumSrc differ", h)
		case !slices.Equal(g.Indptr, w.Indptr):
			return fmt.Sprintf("block %d Indptr differs", h)
		case !slices.Equal(g.Indices, w.Indices):
			return fmt.Sprintf("block %d Indices differ", h)
		case !slices.Equal(g.SelfIdx, w.SelfIdx):
			return fmt.Sprintf("block %d SelfIdx differs", h)
		}
	}
	return ""
}

// mutatedSnapshot returns a snapshot of g with overlay entries on existing
// vertices and AddVertices-added vertices wired in as sources and
// destinations, so both InNeighbors paths of a Snapshot are expanded.
func mutatedSnapshot(t *testing.T, g *graph.CSR) *graph.Snapshot {
	t.Helper()
	n := int32(g.NumVertices)
	m := graph.NewMutable(g, 0)
	m.AddVertices(4)
	snap, err := m.Insert([]graph.Edge{
		{Src: n, Dst: 3}, {Src: n + 1, Dst: 3}, {Src: 17, Dst: n + 2},
		{Src: n + 2, Dst: 42}, {Src: 5, Dst: 17}, {Src: n + 3, Dst: n},
		{Src: 3, Dst: n + 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.OverlayVertices() == 0 {
		t.Fatal("snapshot has no overlay entries")
	}
	return snap
}

// TestInternMatchesMapReference pins the dense-index interner: FullSample
// and Sampler.Sample return exactly what the map-based extraction did, on
// the immutable CSR, a mutated snapshot, duplicate seeds, and across pool
// reuse between graphs of different sizes (a stale nonzero index entry
// left by one graph would corrupt the next one's interning).
func TestInternMatchesMapReference(t *testing.T) {
	big := testDS(t).G        // 800 vertices
	small := fullTestGraph(t) // 80 vertices
	snap := mutatedSnapshot(t, small)
	seedSets := [][]int32{{3}, {3, 17, 42, 3}, {0, 1, 2, 3, 4, 5, 6, 7}, {79, 17, 17, 17}}
	// (15, 10, 5) over degree-14 vertices runs all three samplePick
	// branches: n ≤ k, partial Fisher–Yates, and Floyd (at fanout 3).
	fanoutSets := [][]int{{15, 10, 5}, {3, 3}, {5}}

	check := func(t *testing.T, name string, got, want *Sample) {
		t.Helper()
		if d := sampleDiff(got, want); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	checkGraph := func(t *testing.T, g *graph.CSR) {
		t.Helper()
		for _, seeds := range seedSets {
			for hops := 1; hops <= 3; hops++ {
				check(t, "FullSample", FullSample(g, seeds, hops), refFullSample(g, seeds, hops))
			}
			for i, fanouts := range fanoutSets {
				seed := int64(11 + i)
				s, err := NewSampler(g, fanouts, seed)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "Sample", s.Sample(seeds), refSampledSample(g, fanouts, seed, seeds))
			}
		}
	}

	t.Run("csr", func(t *testing.T) { checkGraph(t, small) })
	t.Run("snapshot", func(t *testing.T) {
		seeds := []int32{3, int32(small.NumVertices), int32(small.NumVertices + 3), 42, 3}
		for hops := 1; hops <= 3; hops++ {
			check(t, "FullSample", FullSample(snap, seeds, hops), refFullSample(snap, seeds, hops))
		}
	})
	t.Run("pool-reuse-large-small-large", func(t *testing.T) {
		for _, g := range []*graph.CSR{big, small, big} {
			checkGraph(t, g)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					g := []*graph.CSR{big, small}[(w+i)%2]
					seeds := []int32{int32((w*31 + i*7) % small.NumVertices), 3}
					check(t, "FullSample", FullSample(g, seeds, 2), refFullSample(g, seeds, 2))
					s, err := NewSampler(g, []int{10, 5}, int64(w))
					if err != nil {
						t.Error(err)
						return
					}
					check(t, "Sample", s.Sample(seeds), refSampledSample(g, []int{10, 5}, int64(w), seeds))
				}
			}(w)
		}
		wg.Wait()
	})
}

// TestFullSampleAllocBudget is the allocation and byte budget of one exact
// 2-hop block extraction from a single seed — the first stage of every
// exact /predict miss. Counts carry no timing noise, so they show the
// interner's saving where a serving wall time is too noisy to.
func TestFullSampleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	g := testDS(t).G
	extract := func() { FullSample(g, []int32{3}, 2) }
	allocs := testing.AllocsPerRun(100, extract)
	bytes := bytesPerRun(100, extract)
	t.Logf("one-seed 2-hop FullSample: %.0f allocs/op, %.0f B/op", allocs, bytes)
	// Measured 32 allocs and 13,785 B (go1.24, default and purego builds):
	// per hop the Block, its three arrays and the frontier's append growth,
	// plus the Sample's frontier and block lists. The margins (3 allocs,
	// 2.6 KB) absorb a toolchain's runtime internals shifting. The map
	// interner this replaced measured 60 allocs and 36,511 B here, over
	// both ceilings.
	const allocBudget, byteBudget = 35, 16 << 10
	if allocs > allocBudget {
		t.Fatalf("FullSample allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Fatalf("FullSample allocates %.0f B, budget %d", bytes, byteBudget)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the mean over
// runs calls of f, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
