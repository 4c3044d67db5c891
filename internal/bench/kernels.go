package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"distgnn/internal/minibatch"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// kernels.go is the abl-kernels ablation: the raw-speed trajectory of the
// aggregation hot path. Two arms over the same fanout-sampled bipartite
// block at d=64 and d=128:
//
//   - scalar-fp32: materialize the |frontier|×d gathered matrix, then
//     AggregateGCN — the pre-fusion pipeline, and the traffic ceiling. The
//     name predates the SIMD gather row-sum both fp32 arms now run; it
//     stays because the committed envelopes key on it.
//   - fused-fp32: GatherAggGCNSum streams rows straight out of the fp32
//     store (bit-identical math, no gathered matrix).
//
// Plus the end-to-end figure the kernels exist to move: mini-batch wall
// time per epoch. With Options.JSON set the
// rows land in BENCH_kernels.json together with the regression-gated
// Metrics/CalibSeconds envelope (see regress.go); BENCH_baseline/ holds
// the committed trajectory that `distgnn-bench -check` diffs against.

const (
	kernelBenchSeeds   = 4096
	kernelBenchHidden  = 64
	kernelBenchBatch   = 512
	kernelBenchFanout  = 10
	kernelBenchMinTime = 0.05 // seconds of work per timing sample
)

// KernelBenchRow is one (d, arm) measurement over the shared block.
type KernelBenchRow struct {
	D   int    `json:"d"`
	Arm string `json:"arm"`
	// PassMS is the min-of-N wall time of one full aggregation pass.
	PassMS float64 `json:"pass_ms"`
	// TrafficMB models the feature bytes moved per pass (store reads, plus
	// the gathered matrix's write+read for the scalar arm).
	TrafficMB float64 `json:"traffic_mb"`
	MBPerSec  float64 `json:"mb_per_sec"`
	// SpeedupVsScalar is scalar-fp32 pass time / this arm's pass time at
	// the same d.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar"`
}

// KernelsBenchReport is the BENCH_kernels.json schema. Metrics and
// CalibSeconds form the MetricsEnvelope the regression gate consumes.
type KernelsBenchReport struct {
	Experiment string           `json:"experiment"`
	Scale      float64          `json:"scale"`
	Epochs     int              `json:"epochs"`
	NumDst     int              `json:"num_dst"`
	NumSrc     int              `json:"num_src"`
	Edges      int              `json:"edges"`
	Rows       []KernelBenchRow `json:"rows"`
	// Metrics are the gated lower-is-better seconds (see MetricsEnvelope):
	// agg_<arm>_d<D>_s per arm and train_epoch_fp32_s end to end.
	Metrics      map[string]float64 `json:"metrics"`
	CalibSeconds float64            `json:"calib_seconds"`
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
	// scalar pipeline's materialized gather is nearly a full extra pass.
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
		Metrics: map[string]float64{},
	}
	t := &table{header: []string{"d", "arm", "pass", "traffic MB", "MB/s", "vs scalar"}}
	for _, d := range []int{64, 128} {
		x := syntheticFeatures(ds.G.NumVertices, d)

		// Feature bytes moved per pass: every arm reads (edges + self) rows
		// from its source; the scalar arm first round-trips the gathered
		// matrix (store read + write, then aggregate reads it back).
		rowReads := float64(nnz+blk.NumDst) * float64(d)
		gatherRT := float64(blk.NumSrc) * float64(d) * (4 + 4)
		arms := []struct {
			name   string
			bytes  float64
			metric string
			run    func()
		}{
			{"scalar-fp32", gatherRT + rowReads*4, fmt.Sprintf("agg_scalar_fp32_d%d_s", d), func() {
				// The pre-fusion pipeline exactly: a fresh |frontier|×d
				// gathered matrix per pass, filled row by row through
				// FeatRows.CopyRow (what gatherFeatures did per sample),
				// then the block aggregate over it.
				rows := spmm.RowsOf(x)
				gathered := tensor.New(len(frontier), d)
				for i, v := range frontier {
					rows.CopyRow(gathered.Row(i), int(v))
				}
				out := minibatch.AggregateGCN(blk, spmm.RowsOf(gathered), nil)
				kernelSink += out.Data[0]
			}},
			{"fused-fp32", rowReads * 4, fmt.Sprintf("agg_fused_fp32_d%d_s", d), func() {
				out := minibatch.AggregateGCN(blk, spmm.RowsOf(x), frontier)
				kernelSink += out.Data[0]
			}},
		}
		var scalarSec float64
		for i, arm := range arms {
			sec := timePass(arm.run)
			if i == 0 {
				scalarSec = sec
			}
			report.Metrics[arm.metric] = sec
			row := KernelBenchRow{
				D: d, Arm: arm.name, PassMS: sec * 1e3,
				TrafficMB: arm.bytes / 1e6, MBPerSec: arm.bytes / 1e6 / sec,
				SpeedupVsScalar: scalarSec / sec,
			}
			report.Rows = append(report.Rows, row)
			t.add(fmt.Sprint(d), arm.name, ms(sec), f2(row.TrafficMB),
				fmt.Sprintf("%.0f", row.MBPerSec), f2(row.SpeedupVsScalar)+"x")
		}
	}
	t.write(opt.Out)

	// End to end: the mini-batch epoch these kernels sit inside. Min over
	// epochs — the steady-state epoch, insulated from first-epoch warmup.
	res, err := minibatch.TrainDistributed(ds, minibatch.DistConfig{
		Config: minibatch.Config{
			Hidden: kernelBenchHidden, NumLayers: 2,
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
	report.Metrics["train_epoch_fp32_s"] = best
	fmt.Fprintf(opt.Out, "wall-epoch (fp32 features): %s   test acc %s\n", ms(best), pct(res.TestAcc))

	report.CalibSeconds = CalibrationSeconds()
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
// sized so each timing sample covers at least kernelBenchMinTime seconds.
func timePass(f func()) float64 {
	f() // warm caches and the allocator
	t0 := time.Now()
	f()
	once := time.Since(t0).Seconds()
	reps := 1
	if once > 0 && once < kernelBenchMinTime {
		reps = int(kernelBenchMinTime/once) + 1
	}
	if reps > 200 {
		reps = 200
	}
	best := math.Inf(1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for k := 0; k < reps; k++ {
			f()
		}
		if sec := time.Since(t0).Seconds() / float64(reps); sec < best {
			best = sec
		}
	}
	return best
}
