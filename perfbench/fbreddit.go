package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/train"
)

// Training hyperparameters: the distgnn-train defaults.
const (
	trainLR = 0.01
	trainWD = 5e-4
)

// fbRedditConfig sizes the single-socket full-batch workload.
type fbRedditConfig struct {
	Scale  float64 // reddit-sim scale (1 = 4,096 vertices)
	Hidden int
	Layers int
	// Epochs is the length of one training run. Set-up and a training run
	// alternate, each from the same seed, until --seconds have passed, and
	// at least minRuns times.
	Epochs int
	// LossTarget is the training loss time_to_loss_s waits for. It is
	// reached on every seed tried, so the metric moves with epoch speed.
	LossTarget float64
}

// minRuns is the fewest training runs a workload makes: the first is the
// reference every later one must repeat bit for bit.
const minRuns = 2

// fbRedditFull is the paper's densest graph, reddit-sim (average degree
// ≈90), with the distgnn-train model, at 1/20 of base scale (204
// vertices, ≈18.5 K edges, 64 features): an epoch takes ≈9 ms on an idle
// core, short enough that many epochs of a run fall where the core's
// co-tenant is idle (see README.md, "Why the training graphs are small").
// Runs are 6 epochs long: on a graph this small the loss varies more
// from seed to seed the longer a run trains.
var fbRedditFull = fbRedditConfig{Scale: 0.05, Hidden: 64, Layers: 3, Epochs: 6, LossTarget: 3.1}

func (c fbRedditConfig) spec(seed int64) (datasets.Spec, error) {
	spec, err := datasets.SpecFor("reddit-sim", c.Scale)
	spec.Seed = seed
	return spec, err
}

func (c fbRedditConfig) model(ds *datasets.Dataset, seed int64) model.Config {
	return model.Config{
		InDim: ds.Features.Cols, OutDim: ds.NumClasses,
		Hidden: c.Hidden, NumLayers: c.Layers, Seed: seed,
	}
}

func (c fbRedditConfig) train(ds *datasets.Dataset, seed int64) (*train.SingleResult, error) {
	return train.SingleSocket(ds, train.SingleConfig{
		Model: c.model(ds, seed), Epochs: c.Epochs, LR: trainLR, WeightDecay: trainWD, UseAdam: true,
	})
}

// runFBReddit alternates set-up (dataset generation plus model
// construction) with a training run through train.SingleSocket for
// --seconds, so set-up is timed across the whole run. The traced run then
// replays as many runs through model.Forward / nn.MaskedCrossEntropy /
// Backward / Optimizer.Step with a span around each, and requires the
// identical loss sequence.
func runFBReddit(c fbRedditConfig, o options) *report {
	r := newReport("fb-reddit")
	spec, err := c.spec(o.seed)
	if err != nil {
		r.problem(err)
		return r
	}
	settle()
	heap := startHeapPeak()
	var ds *datasets.Dataset
	var setup setupTimer
	var mem memDelta
	var trainWall time.Duration
	var losses, epochS, toLoss []float64
	runs := 0
	for t0 := time.Now(); runs < minRuns || time.Since(t0).Seconds() < o.seconds; runs++ {
		setup.start()
		ds, err = datasets.Generate(spec)
		if err == nil {
			_, err = model.New(ds.G, c.model(ds, o.seed), nil)
		}
		setup.stop()
		if err != nil {
			heap.stopMB()
			r.problem(fmt.Errorf("set-up: %w", err))
			return r
		}
		m0, w0 := memMark(), time.Now()
		res, err := c.train(ds, o.seed)
		trainWall += time.Since(w0)
		mem.add(memSince(m0))
		if err != nil {
			heap.stopMB()
			r.problem(fmt.Errorf("train: %w", err))
			return r
		}
		r.ops(int64(c.Epochs), 0)
		got := make([]float64, len(res.Epochs))
		for i, e := range res.Epochs {
			got[i] = e.Loss
		}
		if losses == nil {
			losses = got
			for i, l := range losses {
				r.check(!math.IsNaN(l) && !math.IsInf(l, 0), "epoch %d loss %v is not finite", i, l)
			}
		} else {
			// Same seed, same inputs: the loss sequence repeats bit for bit.
			i := firstDiff(got, losses)
			r.check(i < 0, "run %d: epoch %d loss differs from the first run's", runs, i)
		}
		reached := false
		var toTarget time.Duration
		for i, e := range res.Epochs {
			if i > 0 { // a run's first epoch is warm-up
				epochS = append(epochS, e.Total.Seconds())
			}
			if !reached {
				toTarget += e.Total
				reached = e.Loss <= c.LossTarget
			}
		}
		if reached {
			toLoss = append(toLoss, toTarget.Seconds())
		}
	}
	r.layer["runtime.peak_heap_mb"] = heap.stopMB()
	r.check(len(toLoss) == runs, "training loss never reached the target %.3f (final %.4f)", c.LossTarget, losses[len(losses)-1])
	r.note("graph: %d vertices, %d edges, %d features; set-up %.4f CPU s, %.4f wall s (medians of %d)",
		ds.G.NumVertices, ds.G.NumEdges, ds.Features.Cols, median(setup.cpu), median(setup.wall), runs)

	r.e2e["setup_s"] = median(setup.cpu)
	r.e2e["op_ms"] = 1000 * fastest(epochS)
	r.e2e["final_loss"] = losses[len(losses)-1]
	r.layer["epoch_s"] = median(epochS)
	r.layer["time_to_loss_s"] = median(toLoss)
	r.layer["runtime.alloc_mb_per_epoch"] = float64(mem.allocBytes) / (1 << 20) / float64(runs*c.Epochs)
	r.layer["runtime.gc_pause_ms_per_s"] = ms(mem.pause) / trainWall.Seconds()
	r.note("losses %s", fmtFloats(losses))
	r.note("%d runs of %d epochs: fastest epoch %.3f ms, epoch_s %.5f (median of %d after each run's warm-up), time_to_loss_s %.4f (target %.2f), final_loss %.6f",
		runs, c.Epochs, r.e2e["op_ms"], median(epochS), len(epochS), median(toLoss), c.LossTarget, r.e2e["final_loss"])

	if o.trace {
		traceFBReddit(r, c, ds, o.seed, losses, runs)
	}
	return r
}

// traceFBReddit drives the epoch loop of train.SingleSocket itself, one
// span per layer call, for as many runs as the untraced measurement made.
func traceFBReddit(r *report, c fbRedditConfig, ds *datasets.Dataset, seed int64, want []float64, runs int) {
	settle()
	var fwd, bwd, loss, step, agg, total []float64
	for run := 0; run < runs; run++ {
		m, err := model.New(ds.G, c.model(ds, seed), nil)
		if err != nil {
			r.problem(fmt.Errorf("traced model: %w", err))
			return
		}
		opt := nn.NewAdam(trainLR, trainWD)
		params := m.Params()
		var got []float64
		for epoch := 0; epoch < c.Epochs; epoch++ {
			t0 := time.Now()
			m.ResetAggTime()
			logits := m.Forward(ds.Features, true)
			t1 := time.Now()
			l, dlogits := nn.MaskedCrossEntropy(logits, ds.Labels, ds.TrainIdx)
			t2 := time.Now()
			nn.ZeroGrads(params)
			m.Backward(dlogits)
			t3 := time.Now()
			opt.Step(params)
			t4 := time.Now()
			got = append(got, l)
			if epoch == 0 {
				continue
			}
			fwd = append(fwd, ms(t1.Sub(t0)))
			loss = append(loss, ms(t2.Sub(t1)))
			bwd = append(bwd, ms(t3.Sub(t2)))
			step = append(step, ms(t4.Sub(t3)))
			agg = append(agg, ms(m.AggTime))
			total = append(total, ms(t4.Sub(t0)))
		}
		i := firstDiff(got, want)
		r.check(i < 0, "traced run %d: epoch %d loss differs from train.SingleSocket's", run, i)
		r.ops(int64(c.Epochs), 0)
	}
	mlp := make([]float64, len(fwd))
	for i := range fwd {
		mlp[i] = fwd[i] + bwd[i] - agg[i]
	}
	r.layer["model.forward_ms"] = median(fwd)
	r.layer["model.backward_ms"] = median(bwd)
	r.layer["nn.loss_ms"] = median(loss)
	r.layer["nn.step_ms"] = median(step)
	r.layer["spmm.agg_ms"] = median(agg)
	r.layer["tensor.mlp_ms"] = median(mlp)
	bytes, ops := aggWork(int64(ds.G.NumVertices), int64(ds.G.NumEdges), aggWidths(ds.Features.Cols, c.Hidden, c.Layers))
	r.layer["spmm.bytes_per_epoch_computed"] = bytes
	r.layer["spmm.ops_per_epoch_computed"] = ops
	r.layer["tensor.flops_per_epoch_computed"] = denseFlops(int64(ds.G.NumVertices), ds.Features.Cols, c.Hidden, ds.NumClasses, c.Layers)
	r.layer["trace_overhead"] = fastest(total) / r.e2e["op_ms"]
}

// aggWidths lists the feature width each layer aggregates: the input width
// for layer 0, the hidden width after.
func aggWidths(in, hidden, layers int) []int {
	w := make([]int, layers)
	for l := range w {
		w[l] = hidden
	}
	w[0] = in
	return w
}

// aggWork is the computed traffic and arithmetic of one training epoch's
// aggregation: per layer, a forward pass over A and a backward pass over
// Aᵀ, each reading one width-d fp32 row and one int32 index per edge and
// writing one row per vertex, with one add per edge and column.
func aggWork(v, e int64, widths []int) (bytes, ops float64) {
	for _, d := range widths {
		d := int64(d)
		bytes += 2 * float64(e*(4*d+4)+v*4*d)
		ops += 2 * float64(e*d)
	}
	return bytes, ops
}

// denseFlops is the computed arithmetic of the dense layers per epoch:
// 2·V·in·out for the forward product and twice that for the weight and
// input gradients.
func denseFlops(v int64, in, hidden, out, layers int) float64 {
	var f float64
	for l := 0; l < layers; l++ {
		a, b := hidden, hidden
		if l == 0 {
			a = in
		}
		if l == layers-1 {
			b = out
		}
		f += 6 * float64(v) * float64(a) * float64(b)
	}
	return f
}

// fmtFloats formats a sequence to four decimals for the report lines.
func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
