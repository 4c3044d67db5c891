package bench

import (
	"math"
	"testing"
)

func TestHopWorkOps(t *testing.T) {
	h := hopWork{Vertices: 2000, Degree: 15, Feat: 256}
	if got := h.Ops(); got != 2000*15*256 {
		t.Fatalf("Ops = %v", got)
	}
}

// Table 7 of the paper: the per-mini-batch work of Dist-DGL on
// OGBN-Products sums to ≈0.202 B ops with batch 2000 and fan-outs 5/10/15.
func TestTable7MiniBatchWork(t *testing.T) {
	hops := []hopWork{
		{Vertices: 233692, Degree: 5, Feat: 100}, // hop-2
		{Vertices: 30214, Degree: 10, Feat: 256}, // hop-1
		{Vertices: 2000, Degree: 15, Feat: 256},  // hop-0
	}
	got := totalOps(hops) / 1e9
	if math.Abs(got-0.202) > 0.005 {
		t.Fatalf("mini-batch work %.3f B ops, paper reports 0.202", got)
	}
}

// Table 8 of the paper: full-batch work on OGBN-Products (single socket)
// sums to ≈77.19 B ops.
func TestTable8FullBatchWork(t *testing.T) {
	hops := fullBatchHops(2449029, 51.5, []int{100, 256, 256})
	got := totalOps(hops) / 1e9
	if math.Abs(got-77.19) > 0.3 {
		t.Fatalf("full-batch work %.2f B ops, paper reports 77.19", got)
	}
	// And the 16-socket partition row: ≈18.80 B ops.
	hops16 := fullBatchHops(596499, 51.5, []int{100, 256, 256})
	got16 := totalOps(hops16) / 1e9
	if math.Abs(got16-18.80) > 0.1 {
		t.Fatalf("16-socket work %.2f B ops, paper reports 18.80", got16)
	}
}

func TestMemoryOrdering(t *testing.T) {
	// Table 6's shape: 0c < cd-0 < cd-5 at every partition count.
	p := memoryParams{
		N: 5_000_000, F: 128, H1: 256, H2: 256, L: 172,
		Edges: 50_000_000, SplitVertices: 4_500_000, Delay: 5,
	}
	m0c, err := memoryModel(p, algo0C)
	if err != nil {
		t.Fatal(err)
	}
	mcd0, err := memoryModel(p, algoCD0)
	if err != nil {
		t.Fatal(err)
	}
	mcdr, err := memoryModel(p, algoCDR)
	if err != nil {
		t.Fatal(err)
	}
	if !(m0c < mcd0 && mcd0 < mcdr) {
		t.Fatalf("memory ordering violated: 0c=%d cd-0=%d cd-r=%d", m0c, mcd0, mcdr)
	}
}

// TestMemoryCDRInFlightFollowsDelay pins cd-r's in-flight term to what
// DRPA's delay queues hold: Delay+1 bundles of one bin (a Delay-th of the
// split vertices, rounded up) for the partials and as many for the totals,
// each bundle one row per vertex at every layer's width.
func TestMemoryCDRInFlightFollowsDelay(t *testing.T) {
	const commWidth = (10 + 20 + 30) * 4 // F + H1 + H2 floats per row
	for _, tc := range []struct{ delay, want int64 }{
		{0, 2 * 2 * 60 * commWidth}, // clamped to 1
		{1, 2 * 2 * 60 * commWidth},
		{2, 2 * 3 * 30 * commWidth},
		{5, 2 * 6 * 12 * commWidth},
		{7, 2 * 8 * 9 * commWidth},
	} {
		mem := func(split int) int64 {
			m, err := memoryModel(memoryParams{
				N: 100, F: 10, H1: 20, H2: 30, L: 5, Edges: 400,
				SplitVertices: split, Delay: int(tc.delay),
			}, algoCDR)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		if got := mem(60) - mem(0); got != tc.want {
			t.Errorf("delay %d: in-flight %d bytes, want %d", tc.delay, got, tc.want)
		}
	}
}

func TestMemoryDecreasesWithPartitionSize(t *testing.T) {
	// Table 6: memory per partition shrinks as partitions multiply.
	mk := func(n int) int64 {
		m, err := memoryModel(memoryParams{
			N: n, F: 128, H1: 256, H2: 256, L: 172,
			Edges: n * 14, SplitVertices: int(float64(n) * 0.9), Delay: 5,
		}, algoCDR)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !(mk(1_000_000) > mk(500_000) && mk(500_000) > mk(250_000)) {
		t.Fatal("memory must decrease with partition size")
	}
}

func TestMemoryUnknownAlgo(t *testing.T) {
	if _, err := memoryModel(memoryParams{N: 1}, "bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestFullBatchHopsShape(t *testing.T) {
	hops := fullBatchHops(100, 7.5, []int{10, 20})
	if len(hops) != 2 {
		t.Fatalf("hops %v", hops)
	}
	for _, h := range hops {
		if h.Vertices != 100 || h.Degree != 7.5 {
			t.Fatalf("hop %+v", h)
		}
	}
}
