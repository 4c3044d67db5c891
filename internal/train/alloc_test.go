package train

import (
	"runtime"
	"testing"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
)

// TestFullBatchEpochAllocBudget is the allocation budget of one full-batch
// GraphSAGE epoch as SingleSocket runs it: forward over every vertex,
// masked loss, backward and Adam step. Allocation counts carry no timing
// noise, so garbage added to the full-batch hot path fails here even where
// a wall epoch could not resolve it. The kernel pool is pinned to one
// worker so the count does not depend on the host's core count.
func TestFullBatchEpochAllocBudget(t *testing.T) {
	ds := testDataset(t)
	defer parallel.Configure(parallel.Config{Workers: parallel.Workers()})
	parallel.Configure(parallel.Config{Workers: 1})

	mc := smallModel()
	mc.InDim, mc.OutDim = ds.Features.Cols, ds.NumClasses
	m, err := model.New(ds.G, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01, 0)
	params := m.Params()
	fullBatchEpoch(m, ds, opt, params) // first epoch allocates Adam's moment buffers
	allocs := testing.AllocsPerRun(20, func() { fullBatchEpoch(m, ds, opt, params) })
	t.Logf("full-batch epoch: %.0f allocs/op", allocs)
	// Measured 14 (go1.24, default and purego builds): each layer's Linear
	// output, the loss gradient, and the closures handed to the kernel
	// pool; the aggregate, ReLU, weight-gradient, bias-gradient and
	// input-gradient buffers are reused across epochs. The margin of 6
	// absorbs a toolchain's runtime internals shifting by a few; a new
	// per-row or per-edge allocation overshoots it by hundreds.
	const budget = 20
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if allocs > budget {
		t.Fatalf("one full-batch epoch allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestFullBatchEpochAllocBytes is the byte budget of one warm full-batch
// epoch at perfbench's fb-reddit configuration (reddit-sim at scale 0.05,
// 3 layers × 64 hidden, Adam): runtime.MemStats.TotalAlloc across epochs
// that follow a warm-up, divided by their count. The per-layer aggregate,
// reverse-aggregate, ReLU, weight-gradient and input-gradient buffers are
// reused across epochs, so what remains is each layer's Linear output (the
// last one is the logits, which the caller owns) and the loss gradient:
// 0.19 MB (go1.24, default and purego builds). Allocating every one of
// those buffers afresh on every epoch, and computing layer 0's unused
// input gradient, measured 0.90 MB.
func TestFullBatchEpochAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	spec, err := datasets.SpecFor("reddit-sim", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 1
	ds, err := datasets.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Configure(parallel.Config{Workers: parallel.Workers()})
	parallel.Configure(parallel.Config{Workers: 1})

	m, err := model.New(ds.G, model.Config{
		InDim: ds.Features.Cols, OutDim: ds.NumClasses, Hidden: 64, NumLayers: 3, Seed: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := nn.NewAdam(0.01, 5e-4)
	params := m.Params()
	fullBatchEpoch(m, ds, opt, params) // allocates the reused buffers and Adam's moments
	const epochs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for e := 0; e < epochs; e++ {
		fullBatchEpoch(m, ds, opt, params)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / epochs
	t.Logf("full-batch epoch at fb-reddit's configuration: %.3f MB allocated", mb)
	const budgetMB = 0.5
	if mb > budgetMB {
		t.Fatalf("one warm full-batch epoch allocates %.3f MB, budget %.1f MB", mb, budgetMB)
	}
}
