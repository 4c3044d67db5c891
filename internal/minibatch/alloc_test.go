package minibatch

import (
	"testing"

	"distgnn/internal/comm"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
	"distgnn/internal/spmm"
)

// TestTrainStepAllocBudget is the allocation budget of one mini-batch
// optimizer step — forward, loss, backward, gradient AllReduce and Adam
// step on a fixed Sample — the step every rank of TrainDistributed and
// TrainSharded runs. Allocation counts carry no timing noise, so a change
// that adds garbage to the training hot path fails here even where a wall
// epoch could not resolve it. The kernel pool is pinned to one worker so
// the count does not depend on the host's core count.
func TestTrainStepAllocBudget(t *testing.T) {
	ds := testDS(t)
	defer parallel.Configure(parallel.Config{Workers: parallel.Workers()})
	parallel.Configure(parallel.Config{Workers: 1})

	sampler, err := NewSampler(ds.G, []int{10, 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeds := ds.TrainIdx[:64]
	s := sampler.Sample(seeds)
	bw := sampledBatch{seeds: seeds, s: s, rows: spmm.RowsOf(ds.Features), frontier: s.InputFrontier()}
	m, err := model.New(nil, model.Config{InDim: ds.Features.Cols, Hidden: 32, OutDim: ds.NumClasses, NumLayers: 2, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var allocs float64
	comm.RunInProcess(1, func(w *comm.World) {
		st := &rankStepper{m: m, params: m.Params(), opt: nn.NewAdam(0.01, 0), world: w, labels: ds.Labels}
		st.step(bw, len(seeds)) // first step allocates Adam's moment buffers
		allocs = testing.AllocsPerRun(20, func() { st.step(bw, len(seeds)) })
	})
	t.Logf("mini-batch step: %.0f allocs/op", allocs)
	// Measured 24 (go1.24, default and purego builds): the per-layer
	// activation, gradient and aggregate matrices, the label and mask
	// slices, and the flattened gradient buffer. The margin of 6 absorbs a
	// toolchain's runtime internals shifting by a few; a new per-row or
	// per-edge allocation overshoots it by hundreds.
	const budget = 30
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if allocs > budget {
		t.Fatalf("one mini-batch step allocates %.0f times, budget %d", allocs, budget)
	}
}
