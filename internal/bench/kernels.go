package bench

import (
	"fmt"
	"math"
	"time"

	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// kernels.go is the abl-kernels ablation: the raw-speed trajectory of the
// aggregation hot path. Two arms over the same fanout-sampled bipartite
// block at d=64 and d=128:
//
//   - gathered-fp32: materialize the |frontier|×d gathered matrix, then
//     model.AggregateGCN over it — the path sampled training takes, and
//     serving when its feature cache is on; the traffic ceiling.
//   - fused-fp32: GatherAggGCNSum streams rows straight out of the fp32
//     store (bit-identical math, no gathered matrix).
//
// Plus the end-to-end figure the kernels exist to move: mini-batch wall
// time per epoch of minibatch.TrainSharded at 1, 2 and 4 ranks, which
// gathers each batch's layer-0 rows and so runs the gathered arm, with the
// halo rows the ranks fetched from their peers. The wall times are
// reported, not gated: perfbench gates wall time, and the mini-batch step's
// allocation budget (internal/minibatch) pins its garbage.

const (
	kernelBenchSeeds   = 4096
	kernelBenchHidden  = 64
	kernelBenchBatch   = 512
	kernelBenchFanout  = 10
	kernelBenchMinTime = 50 * time.Millisecond // work per timing sample
)

// kernelSink defeats dead-code elimination of the timed passes.
var kernelSink float32

// AblationKernels measures the aggregation-kernel arms and the wall-epoch
// trajectory they drive.
func AblationKernels(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	seeds := strideSample(ds.G.NumVertices, kernelBenchSeeds)
	// A fanout-sampled block — the shape the mini-batch trainer's layer 0
	// actually runs, where each frontier row is read roughly once and the
	// gathered pipeline's materialized matrix is nearly a full extra pass.
	sampler, err := minibatch.NewSampler(ds.G, []int{kernelBenchFanout}, 1)
	if err != nil {
		return err
	}
	s := sampler.Sample(seeds)
	blk := s.Blocks[0]
	frontier := s.InputFrontier()
	nnz := len(blk.Indices)

	t := &table{header: []string{"d", "arm", "pass", "traffic MB", "MB/s", "vs gathered"}}
	for _, d := range []int{64, 128} {
		x := syntheticFeatures(ds.G.NumVertices, d)

		// Feature bytes moved per pass: every arm reads (edges + self) rows
		// from its source; the gathered arm first round-trips the gathered
		// matrix (store read + write, then aggregate reads it back).
		rowReads := float64(nnz+blk.NumDst) * float64(d)
		gatherRT := float64(blk.NumSrc) * float64(d) * (4 + 4)
		arms := []struct {
			name  string
			bytes float64
			run   func() error
		}{
			{"gathered-fp32", gatherRT + rowReads*4, func() error {
				// The pre-fusion pipeline exactly: a fresh |frontier|×d
				// gathered matrix per pass, filled row by row through
				// FeatRows.CopyRow (what gatherFeatures did per sample),
				// then the block aggregate over it.
				rows := spmm.RowsOf(x)
				gathered := tensor.New(len(frontier), d)
				for i, v := range frontier {
					rows.CopyRow(gathered.Row(i), int(v))
				}
				out := model.AggregateGCN(blk.Indptr, blk.Indices, blk.SelfIdx, spmm.RowsOf(gathered), nil)
				kernelSink += out.Data[0]
				return nil
			}},
			{"fused-fp32", rowReads * 4, func() error {
				out := model.AggregateGCN(blk.Indptr, blk.Indices, blk.SelfIdx, spmm.RowsOf(x), frontier)
				kernelSink += out.Data[0]
				return nil
			}},
		}
		var gatheredSec float64
		for i, arm := range arms {
			pass, err := timePass(arm.run)
			if err != nil {
				return err
			}
			sec := pass.Seconds()
			if i == 0 {
				gatheredSec = sec
			}
			mb := arm.bytes / 1e6
			t.add(fmt.Sprint(d), arm.name, ms(sec), f2(mb),
				fmt.Sprintf("%.0f", mb/sec), f2(gatheredSec/sec)+"x")
		}
	}
	t.write(opt.Out)

	// End to end: the mini-batch epoch these kernels sit inside, across
	// rank counts. Ranks above one source non-owned rows from their peers,
	// so the sweep also shows the cost of remote features.
	e2e := &table{header: []string{"#ranks", "epoch (wall)", "steps", "rows fetched", "test acc"}}
	for _, ranks := range []int{1, 2, 4} {
		res, err := minibatch.TrainSharded(ds, minibatch.DistConfig{
			Config: minibatch.Config{
				Hidden:    kernelBenchHidden,
				Fanouts:   []int{kernelBenchFanout, kernelBenchFanout},
				BatchSize: kernelBenchBatch, Epochs: opt.epochs(2),
				LR: 0.02, UseAdam: true, Seed: 1,
			},
			NumRanks: ranks,
		})
		if err != nil {
			return err
		}
		// Min over epochs: the steady-state epoch, insulated from
		// first-epoch warmup.
		best := math.Inf(1)
		for _, e := range res.Epochs {
			best = min(best, e.Time.Seconds())
		}
		var fetched int64
		for _, hs := range res.HaloStats {
			fetched += hs.HaloFetchedVertices
		}
		e2e.add(fmt.Sprint(ranks), ms(best), fmt.Sprint(res.Epochs[len(res.Epochs)-1].Steps),
			fmt.Sprint(fetched), pct(res.TestAcc))
	}
	e2e.write(opt.Out)
	return nil
}

// strideSample picks up to k evenly spaced vertices.
func strideSample(n, k int) []int32 {
	if k > n {
		k = n
	}
	step := n / k
	if step < 1 {
		step = 1
	}
	out := make([]int32, k)
	for i := range out {
		out[i] = int32((i * step) % n)
	}
	return out
}

// syntheticFeatures builds a deterministic NumVertices×d matrix (LCG fill)
// so the arms run at widths the dataset's native features don't have.
func syntheticFeatures(n, d int) *tensor.Matrix {
	x := tensor.New(n, d)
	state := uint32(1)
	for i := range x.Data {
		state = state*1664525 + 1013904223
		x.Data[i] = float32(state>>8)/float32(1<<24) - 0.5
	}
	return x
}

// timePass returns the min-of-5 per-pass wall time, with the rep count
// sized so each timing sample covers at least kernelBenchMinTime. The
// untimed warm-up pass also checks f's operands: its error is returned;
// the timed passes run the same operands and skip the check.
func timePass(f func() error) (time.Duration, error) {
	if err := f(); err != nil { // also warms caches and the allocator
		return 0, err
	}
	t0 := time.Now()
	f()
	once := time.Since(t0)
	reps := 1
	if once > 0 && once < kernelBenchMinTime {
		reps = int(kernelBenchMinTime/once) + 1
	}
	if reps > 200 {
		reps = 200
	}
	best := time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			f()
		}
		if d := time.Since(t0) / time.Duration(reps); d < best {
			best = d
		}
	}
	return best, nil
}
