package train

import (
	"testing"

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
	// Measured 40 (go1.24, default and purego builds): the per-layer
	// activation, aggregate and gradient matrices and the loss gradient.
	// The margin of 6 absorbs a toolchain's runtime internals shifting by a
	// few; a new per-row or per-edge allocation overshoots it by hundreds.
	const budget = 46
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if allocs > budget {
		t.Fatalf("one full-batch epoch allocates %.0f times, budget %d", allocs, budget)
	}
}
