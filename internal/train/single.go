// Package train implements DistGNN's training loops: the single-socket
// full-batch trainer (§4, Fig. 2) and the distributed trainer with the
// three §5.3 algorithms — 0c (communication avoidance), cd-0 (synchronous
// partial-aggregate exchange) and cd-r (Delayed Remote Partial Aggregates,
// Alg. 4) — over vertex-cut partitions and the comm runtime.
package train

import (
	"fmt"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/parallel"
)

// SingleConfig configures single-socket full-batch training.
type SingleConfig struct {
	Model       model.Config
	Epochs      int
	LR          float64
	WeightDecay float64
	UseAdam     bool
	// Workers sizes the process-wide kernel worker pool for this run — the
	// OMP_NUM_THREADS knob of the paper's experiments. 0 keeps the current
	// pool (GOMAXPROCS by default).
	Workers int
}

// EpochStat records one epoch of single-socket training: the loss, total
// wall time, and the time spent inside the aggregation primitive (the two
// bars of Fig. 2).
type EpochStat struct {
	Loss  float64
	Total time.Duration
	Agg   time.Duration
}

// SingleResult is the outcome of a single-socket training run.
type SingleResult struct {
	Epochs   []EpochStat
	TrainAcc float64
	ValAcc   float64
	TestAcc  float64
	Model    *model.GraphSAGE
}

// AvgEpoch returns mean total and aggregation time over epochs [lo, hi)
// (clamped), matching the paper's habit of averaging over a window.
func (r *SingleResult) AvgEpoch(lo, hi int) (total, agg time.Duration) {
	if hi > len(r.Epochs) {
		hi = len(r.Epochs)
	}
	if lo >= hi {
		return 0, 0
	}
	for _, e := range r.Epochs[lo:hi] {
		total += e.Total
		agg += e.Agg
	}
	n := time.Duration(hi - lo)
	return total / n, agg / n
}

// SingleSocket trains GraphSAGE full-batch on one simulated socket.
// Model dimensions are filled from the dataset when left zero.
func SingleSocket(ds *datasets.Dataset, cfg SingleConfig) (*SingleResult, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: Epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.Workers > 0 {
		parallel.Configure(parallel.Config{Workers: cfg.Workers})
	}
	mc := cfg.Model
	if mc.InDim == 0 {
		mc.InDim = ds.Features.Cols
	}
	if mc.OutDim == 0 {
		mc.OutDim = ds.NumClasses
	}
	if mc.NumLayers == 0 {
		mc.NumLayers = 3
	}
	if mc.Hidden == 0 {
		mc.Hidden = 256
	}
	m, err := model.New(ds.G, mc, nil)
	if err != nil {
		return nil, err
	}
	var opt nn.Optimizer
	if cfg.UseAdam {
		opt = nn.NewAdam(cfg.LR, cfg.WeightDecay)
	} else {
		opt = &nn.SGD{LR: cfg.LR, WeightDecay: cfg.WeightDecay}
	}

	res := &SingleResult{Model: m}
	params := m.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		loss := fullBatchEpoch(m, ds, opt, params)
		res.Epochs = append(res.Epochs, EpochStat{
			Loss:  loss,
			Total: time.Since(start),
			Agg:   m.AggTime,
		})
	}

	logits := m.Forward(ds.Features, false)
	res.TrainAcc = nn.Accuracy(logits, ds.Labels, ds.TrainIdx)
	res.ValAcc = nn.Accuracy(logits, ds.Labels, ds.ValIdx)
	res.TestAcc = nn.Accuracy(logits, ds.Labels, ds.TestIdx)
	return res, nil
}

// fullBatchEpoch runs one full-batch epoch — forward over every vertex, the
// masked loss on the training vertices, backward, and the optimizer step —
// and returns the loss. m.AggTime covers this epoch's aggregation.
func fullBatchEpoch(m *model.GraphSAGE, ds *datasets.Dataset, opt nn.Optimizer, params []*nn.Param) float64 {
	m.ResetAggTime()
	logits := m.Forward(ds.Features, true)
	loss, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
	nn.ZeroGrads(params)
	m.Backward(dlogits)
	opt.Step(params)
	return loss
}
