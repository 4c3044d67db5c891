package cachesim

import (
	"math/rand"
	"testing"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
)

func TestLRUBasicHitMiss(t *testing.T) {
	c := NewLRU(100)
	if c.Access(1, 40) {
		t.Fatal("first access must miss")
	}
	if !c.Access(1, 40) {
		t.Fatal("second access must hit")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := NewLRU(100)
	c.Access(1, 40)
	c.Access(2, 40)
	c.Access(1, 40) // 1 now most recent
	c.Access(3, 40) // must evict 2
	// Probe 2 last: a miss re-inserts it.
	if !c.Access(1, 40) || !c.Access(3, 40) || c.Access(2, 40) {
		t.Fatal("wrong eviction victim")
	}
}

func TestLRUOversizedEntryNeverCached(t *testing.T) {
	c := NewLRU(10)
	if c.Access(1, 100) {
		t.Fatal("oversized access cannot hit")
	}
	if c.Access(1, 100) {
		t.Fatal("oversized access must keep missing")
	}
}

func TestLRUCapacityRespected(t *testing.T) {
	c := NewLRU(100)
	for k := uint64(0); k < 50; k++ {
		c.Access(k, 30)
	}
	// 100 bytes hold three 30-byte entries: the last three hit, and the
	// fourth-last was evicted. Probe it last: a miss re-inserts it.
	if !c.Access(49, 30) || !c.Access(48, 30) || !c.Access(47, 30) || c.Access(46, 30) {
		t.Fatal("cache must hold exactly the three most recent entries")
	}
}

func ringGraph(n int) *graph.CSR {
	edges := make([]graph.Edge, 0, 2*n)
	for v := 0; v < n; v++ {
		edges = append(edges,
			graph.Edge{Src: int32(v), Dst: int32((v + 1) % n)},
			graph.Edge{Src: int32((v + 1) % n), Dst: int32(v)})
	}
	return graph.MustCSR(n, edges)
}

func randomGraph(rng *rand.Rand, n, m int) *graph.CSR {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return graph.MustCSR(n, edges)
}

func TestInfiniteCacheAchievesIdealReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 500, 8000)
	st := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: 256, CacheBytes: 1 << 30, ReorderedOutput: true})
	// With an infinite cache every distinct source misses exactly once.
	distinct := map[int32]bool{}
	for _, e := range g.Edges() {
		distinct[e.Src] = true
	}
	if st.FVMisses != int64(len(distinct)) {
		t.Fatalf("misses %d != distinct sources %d", st.FVMisses, len(distinct))
	}
	if st.FVAccesses != int64(g.NumEdges) {
		t.Fatalf("accesses %d != edges %d", st.FVAccesses, g.NumEdges)
	}
}

func TestTinyCacheReuseNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 1000, 16000)
	st := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: 256, CacheBytes: 512, ReorderedOutput: true})
	if r := st.ReuseFactor(); r > 1.5 {
		t.Fatalf("tiny cache reuse %v should be ≈1", r)
	}
}

func TestReuseBoundedByAvgSourceDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 300, 6000)
	distinct := map[int32]bool{}
	for _, e := range g.Edges() {
		distinct[e.Src] = true
	}
	ideal := float64(g.NumEdges) / float64(len(distinct))
	for _, nB := range []int{1, 2, 8, 32} {
		st := SimulateAP(g, APConfig{NumBlocks: nB, FeatureBytes: 128, CacheBytes: 1 << 14, ReorderedOutput: true})
		if r := st.ReuseFactor(); r > ideal+1e-9 {
			t.Fatalf("nB=%d: reuse %v exceeds ideal %v", nB, r, ideal)
		}
	}
}

func TestBlockingImprovesReuseOnDenseGraph(t *testing.T) {
	// Table 3's Reddit row: with a cache too small for all of f_V,
	// blocking must raise reuse substantially.
	d := datasets.MustLoad("reddit-sim", 0.5)
	featBytes := 64 * 4
	cache := d.G.NumVertices * featBytes / 8 // cache holds 1/8 of f_V
	one := SimulateAP(d.G, APConfig{NumBlocks: 1, FeatureBytes: featBytes, CacheBytes: cache, ReorderedOutput: true})
	blocked := SimulateAP(d.G, APConfig{NumBlocks: 16, FeatureBytes: featBytes, CacheBytes: cache, ReorderedOutput: true})
	if blocked.ReuseFactor() < 1.5*one.ReuseFactor() {
		t.Fatalf("blocking reuse %v vs unblocked %v — expected ≥1.5×",
			blocked.ReuseFactor(), one.ReuseFactor())
	}
}

func TestMoreBlocksMoreOutputTraffic(t *testing.T) {
	// Each extra pass over f_O adds read+write traffic (Fig. 3's rising
	// right side).
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 400, 12000)
	cfg := APConfig{FeatureBytes: 256, CacheBytes: 1 << 30, ReorderedOutput: true} // infinite: isolate f_O term
	st1 := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: cfg.FeatureBytes, CacheBytes: cfg.CacheBytes, ReorderedOutput: true})
	st8 := SimulateAP(g, APConfig{NumBlocks: 8, FeatureBytes: cfg.FeatureBytes, CacheBytes: cfg.CacheBytes, ReorderedOutput: true})
	if st8.BytesWritten <= st1.BytesWritten {
		t.Fatalf("8 blocks wrote %d ≤ 1 block %d", st8.BytesWritten, st1.BytesWritten)
	}
}

func TestReorderedOutputReducesFVMisses(t *testing.T) {
	// Without reordering, f_O rows occupy the cache and evict f_V vectors.
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 600, 20000)
	featBytes := 256
	cache := 600 * featBytes / 3
	plain := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: featBytes, CacheBytes: cache})
	reord := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: featBytes, CacheBytes: cache, ReorderedOutput: true})
	if reord.FVMisses >= plain.FVMisses {
		t.Fatalf("reordered misses %d not below plain %d", reord.FVMisses, plain.FVMisses)
	}
}

func TestSweepBlocksMatchesIndividualRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 200, 3000)
	cfg := APConfig{FeatureBytes: 128, CacheBytes: 1 << 15, ReorderedOutput: true}
	sweep := SweepBlocks(g, cfg, []int{1, 4, 16})
	for i, nB := range []int{1, 4, 16} {
		c := cfg
		c.NumBlocks = nB
		single := SimulateAP(g, c)
		if sweep[i] != single {
			t.Fatalf("nB=%d: sweep %+v != single %+v", nB, sweep[i], single)
		}
	}
}

func TestStatsAccessors(t *testing.T) {
	st := APStats{FVAccesses: 100, FVMisses: 20, BytesRead: 300, BytesWritten: 100}
	if st.ReuseFactor() != 5 {
		t.Fatalf("reuse %v", st.ReuseFactor())
	}
	if st.TotalIO() != 400 {
		t.Fatalf("total IO %v", st.TotalIO())
	}
	if (APStats{}).ReuseFactor() != 0 {
		t.Fatal("zero-miss reuse must be 0")
	}
}

func TestRingGraphPerfectSpatialReuse(t *testing.T) {
	// Ring: each source feeds 2 destinations; with a warm cache holding a
	// window, reuse approaches 2.
	g := ringGraph(2000)
	st := SimulateAP(g, APConfig{NumBlocks: 1, FeatureBytes: 64, CacheBytes: 64 * 64, ReorderedOutput: true})
	if r := st.ReuseFactor(); r < 1.5 || r > 2.01 {
		t.Fatalf("ring reuse %v, want ≈2", r)
	}
}
