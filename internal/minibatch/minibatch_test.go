package minibatch

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
)

func testDS(t *testing.T) *datasets.Dataset {
	t.Helper()
	d, err := datasets.Generate(datasets.Spec{
		Name: "mb-test", NumVertices: 800, AvgDegree: 14,
		FeatDim: 16, NumClasses: 4, Communities: 4, IntraFrac: 0.85,
		Undirected: true, FeatureNoise: 0.8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSamplerFanoutRespected(t *testing.T) {
	ds := testDS(t)
	s, err := NewSampler(ds.G, []int{5, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sample := s.Sample(ds.TrainIdx[:50])
	if len(sample.Blocks) != 2 || len(sample.Frontiers) != 3 {
		t.Fatalf("blocks=%d frontiers=%d", len(sample.Blocks), len(sample.Frontiers))
	}
	for h, blk := range sample.Blocks {
		fanout := s.Fanouts[h]
		for i := 0; i < blk.NumDst; i++ {
			deg := int(blk.Indptr[i+1] - blk.Indptr[i])
			if deg > fanout {
				t.Fatalf("hop %d dst %d sampled %d > fanout %d", h, i, deg, fanout)
			}
			trueDeg := ds.G.InDegree(int(sample.Frontiers[h][i]))
			if trueDeg >= fanout && deg != fanout {
				t.Fatalf("hop %d dst %d sampled %d, degree %d allows full fanout %d",
					h, i, deg, trueDeg, fanout)
			}
		}
	}
}

func TestSamplerNoDuplicatePicksPerVertex(t *testing.T) {
	ds := testDS(t)
	s, err := NewSampler(ds.G, []int{8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sample := s.Sample(ds.TrainIdx[:100])
	blk := sample.Blocks[0]
	for i := 0; i < blk.NumDst; i++ {
		seen := map[int32]bool{}
		dstGlobal := sample.Frontiers[0][i]
		// Duplicate neighbors in the multigraph are legitimate duplicate
		// picks; only flag duplicates beyond the multiplicity.
		multiplicity := map[int32]int{}
		for _, u := range ds.G.InNeighbors(int(dstGlobal)) {
			multiplicity[u]++
		}
		picked := map[int32]int{}
		for p := blk.Indptr[i]; p < blk.Indptr[i+1]; p++ {
			g := sample.Frontiers[1][blk.Indices[p]]
			picked[g]++
			if picked[g] > multiplicity[g] {
				t.Fatalf("dst %d picked %d more times than its multiplicity %d",
					dstGlobal, picked[g], multiplicity[g])
			}
			_ = seen
		}
	}
}

func TestSamplerSelfInSrcFrontier(t *testing.T) {
	ds := testDS(t)
	s, _ := NewSampler(ds.G, []int{4, 4}, 3)
	sample := s.Sample(ds.TrainIdx[:30])
	for h, blk := range sample.Blocks {
		for i := 0; i < blk.NumDst; i++ {
			dst := sample.Frontiers[h][i]
			src := sample.Frontiers[h+1][blk.SelfIdx[i]]
			if dst != src {
				t.Fatalf("hop %d: SelfIdx maps %d to %d", h, dst, src)
			}
		}
	}
}

func TestSamplerIndicesInRange(t *testing.T) {
	ds := testDS(t)
	s, _ := NewSampler(ds.G, []int{6, 6, 6}, 4)
	sample := s.Sample(ds.TrainIdx[:64])
	for h, blk := range sample.Blocks {
		if blk.NumSrc != len(sample.Frontiers[h+1]) {
			t.Fatalf("hop %d: NumSrc %d != frontier %d", h, blk.NumSrc, len(sample.Frontiers[h+1]))
		}
		for _, idx := range blk.Indices {
			if idx < 0 || int(idx) >= blk.NumSrc {
				t.Fatalf("hop %d: index %d out of range [0,%d)", h, idx, blk.NumSrc)
			}
		}
	}
}

func TestSamplerRejectsBadConfig(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := NewSampler(g, nil, 1); err == nil {
		t.Fatal("expected error for empty fanouts")
	}
	if _, err := NewSampler(g, []int{0}, 1); err == nil {
		t.Fatal("expected error for zero fanout")
	}
}

func TestSamplePickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30)
		k := rng.Intn(10) + 1
		picked := samplePick(rng, n, k, nil)
		want := k
		if n < k {
			want = n
		}
		if len(picked) != want {
			t.Fatalf("n=%d k=%d got %d picks", n, k, len(picked))
		}
		seen := map[int32]bool{}
		for _, p := range picked {
			if p < 0 || int(p) >= n {
				t.Fatalf("pick %d out of range [0,%d)", p, n)
			}
			if seen[p] {
				t.Fatalf("duplicate pick %d", p)
			}
			seen[p] = true
		}
	}
}

func TestTrainLearns(t *testing.T) {
	ds := testDS(t)
	res, err := TrainDistributed(ds, DistConfig{
		Config: Config{
			Hidden: 16, Fanouts: []int{10, 5},
			BatchSize: 64, Epochs: 8, LR: 0.05, UseAdam: true, Seed: 5,
		},
		NumRanks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss
	if last >= first*0.8 {
		t.Fatalf("mini-batch loss %v → %v did not improve", first, last)
	}
	if res.TestAcc < 0.5 {
		t.Fatalf("mini-batch test accuracy %v < 0.5", res.TestAcc)
	}
	for _, e := range res.Epochs {
		if e.SampledWork <= 0 || e.Steps <= 0 || e.Time <= 0 {
			t.Fatalf("bad epoch stat %+v", e)
		}
	}
	if res.AvgEpochTime() <= 0 {
		t.Fatal("AvgEpochTime must be positive")
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	ds := testDS(t)
	bad := []Config{
		{Hidden: 8, Fanouts: []int{5}, BatchSize: 0, Epochs: 1, LR: 0.1},
		{Hidden: 8, Fanouts: []int{5}, BatchSize: 10, Epochs: 0, LR: 0.1},
	}
	for i, cfg := range bad {
		if _, err := TrainDistributed(ds, DistConfig{Config: cfg, NumRanks: 1}); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestSampledWorkBelowFullBatchWork(t *testing.T) {
	// The comparison behind Tables 7/8: sampled aggregation work per epoch
	// is far below full-neighborhood work.
	ds := testDS(t)
	res, err := TrainDistributed(ds, DistConfig{
		Config: Config{
			Hidden: 16, Fanouts: []int{10, 5},
			BatchSize: 64, Epochs: 1, LR: 0.05, Seed: 6,
		},
		NumRanks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Full-batch work per epoch: |E|·(featDim + hidden) for two layers.
	fullWork := int64(ds.G.NumEdges) * int64(ds.Features.Cols+16)
	if res.Epochs[0].SampledWork >= fullWork {
		t.Fatalf("sampled work %d not below full-batch %d", res.Epochs[0].SampledWork, fullWork)
	}
}

// TestSamplePickFloydUniform pins the Floyd branch's distribution: with
// n > floydThreshold·k every index must be included with probability k/n.
// Tolerance is ±6σ of the per-index binomial proportion over the trials, so
// a systematic bias fails while sampling noise never does.
func TestSamplePickFloydUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, k, trials = 30, 5, 60000
	if n <= floydThreshold*k {
		t.Fatalf("n=%d k=%d does not engage the Floyd branch", n, k)
	}
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		picked := samplePick(rng, n, k, nil)
		if len(picked) != k {
			t.Fatalf("trial %d: %d picks, want %d", trial, len(picked), k)
		}
		for _, p := range picked {
			counts[p]++
		}
	}
	want := float64(k) / float64(n)
	tol := 6 * math.Sqrt(want*(1-want)/float64(trials))
	for i, c := range counts {
		got := float64(c) / float64(trials)
		if got < want-tol || got > want+tol {
			t.Fatalf("index %d included at rate %.4f, want %.4f ± %.4f", i, got, want, tol)
		}
	}
}

// TestSamplePickFloydDistinct hammers the Floyd branch across shapes: picks
// stay distinct, in range, and exactly k long whenever n > k.
func TestSamplePickFloydDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(8) + 1
		n := floydThreshold*k + 1 + rng.Intn(200)
		picked := samplePick(rng, n, k, nil)
		if len(picked) != k {
			t.Fatalf("n=%d k=%d: %d picks", n, k, len(picked))
		}
		seen := map[int32]bool{}
		for _, p := range picked {
			if p < 0 || int(p) >= n {
				t.Fatalf("n=%d k=%d: pick %d out of range", n, k, p)
			}
			if seen[p] {
				t.Fatalf("n=%d k=%d: duplicate pick %d", n, k, p)
			}
			seen[p] = true
		}
	}
}

func TestParseFanouts(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		bad  bool
	}{
		{in: "", want: nil},
		{in: "10", want: []int{10}},
		{in: "10,5", want: []int{10, 5}},
		{in: " 15 , 10,5 ", want: []int{15, 10, 5}},
		{in: "10,,5", bad: true},
		{in: "10,0", bad: true},
		{in: "-3", bad: true},
		{in: "ten", bad: true},
		{in: ",", bad: true},
	}
	for _, c := range cases {
		got, err := ParseFanouts(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseFanouts(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || !slices.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("ParseFanouts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}
