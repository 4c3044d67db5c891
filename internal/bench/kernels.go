package bench

import (
	"encoding/json"
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
//     model.AggregateGCN over it — the path serving takes when its feature
//     cache is on, and the traffic ceiling.
//   - fused-fp32: GatherAggGCNSum streams rows straight out of the fp32
//     store (bit-identical math, no gathered matrix).
//
// Plus the end-to-end figure the kernels exist to move: mini-batch wall
// time per epoch. The wall times are reported, not gated: perfbench gates
// wall time, and the mini-batch step's allocation budget
// (internal/minibatch) pins its garbage. With Options.JSON set the rows
// land in one machine-readable report.

const (
	kernelBenchSeeds   = 4096
	kernelBenchHidden  = 64
	kernelBenchBatch   = 512
	kernelBenchFanout  = 10
	kernelBenchMinTime = 50 * time.Millisecond // work per timing sample
)

// KernelBenchRow is one (d, arm) measurement over the shared block.
type KernelBenchRow struct {
	D   int    `json:"d"`
	Arm string `json:"arm"`
	// PassMS is the min-of-N wall time of one full aggregation pass.
	PassMS float64 `json:"pass_ms"`
	// TrafficMB models the feature bytes moved per pass (store reads, plus
	// the gathered matrix's write+read for the gathered arm).
	TrafficMB float64 `json:"traffic_mb"`
	MBPerSec  float64 `json:"mb_per_sec"`
	// SpeedupVsGathered is gathered-fp32 pass time / this arm's pass time
	// at the same d.
	SpeedupVsGathered float64 `json:"speedup_vs_gathered"`
}

// KernelsBenchReport is abl-kernels' JSON report.
type KernelsBenchReport struct {
	Experiment string           `json:"experiment"`
	Scale      float64          `json:"scale"`
	Epochs     int              `json:"epochs"`
	NumDst     int              `json:"num_dst"`
	NumSrc     int              `json:"num_src"`
	Edges      int              `json:"edges"`
	Rows       []KernelBenchRow `json:"rows"`
	// TrainEpochS is the min-over-epochs mini-batch wall epoch.
	TrainEpochS float64 `json:"train_epoch_s"`
}

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

	report := KernelsBenchReport{
		Experiment: "abl-kernels", Scale: opt.scale(), Epochs: opt.epochs(2),
		NumDst: blk.NumDst, NumSrc: blk.NumSrc, Edges: nnz,
	}
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
			row := KernelBenchRow{
				D: d, Arm: arm.name, PassMS: sec * 1e3,
				TrafficMB: arm.bytes / 1e6, MBPerSec: arm.bytes / 1e6 / sec,
				SpeedupVsGathered: gatheredSec / sec,
			}
			report.Rows = append(report.Rows, row)
			t.add(fmt.Sprint(d), arm.name, ms(sec), f2(row.TrafficMB),
				fmt.Sprintf("%.0f", row.MBPerSec), f2(row.SpeedupVsGathered)+"x")
		}
	}
	t.write(opt.Out)

	// End to end: the mini-batch epoch these kernels sit inside. Min over
	// epochs — the steady-state epoch, insulated from first-epoch warmup.
	res, err := minibatch.TrainDistributed(ds, minibatch.DistConfig{
		Config: minibatch.Config{
			Hidden:    kernelBenchHidden,
			Fanouts:   []int{kernelBenchFanout, kernelBenchFanout},
			BatchSize: kernelBenchBatch, Epochs: opt.epochs(2),
			LR: 0.02, UseAdam: true, Seed: 1,
		},
		NumRanks: 1,
	})
	if err != nil {
		return err
	}
	best := math.Inf(1)
	for _, e := range res.Epochs {
		if sec := e.Time.Seconds(); sec < best {
			best = sec
		}
	}
	report.TrainEpochS = best
	fmt.Fprintf(opt.Out, "wall-epoch (fp32 features): %s   test acc %s\n", ms(best), pct(res.TestAcc))

	if opt.JSON != nil {
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
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
