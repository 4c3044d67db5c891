package comm

import (
	"time"

	"distgnn/internal/graph"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// ComputeModel converts per-rank work counters into simulated per-socket
// compute time. The scaling experiments (Fig. 5/6) model each partition as
// its own full CPU socket; running 64–128 ranks as goroutines on one
// machine would serialize them and destroy the scaling shape, so compute
// time is accounted from work counters at calibrated single-socket rates
// instead, while the data flow itself is executed for real.
type ComputeModel struct {
	// AggElemsPerSec: aggregation-primitive throughput in
	// (edges × feature-width) element-updates per second.
	AggElemsPerSec float64
	// MACsPerSec: dense-layer throughput in multiply-accumulates per second.
	MACsPerSec float64
}

// DefaultComputeModel approximates one Xeon 8280 socket (the paper's
// single-socket machine): ~2.4e9 aggregation element-updates/s (memory-BW
// bound) and ~1e11 MAC/s for the small dense layers.
func DefaultComputeModel() ComputeModel {
	return ComputeModel{AggElemsPerSec: 2.4e9, MACsPerSec: 1e11}
}

// AggSeconds returns simulated seconds for aggregating elems edge-feature
// elements.
func (c ComputeModel) AggSeconds(elems int64) float64 {
	return float64(elems) / c.AggElemsPerSec
}

// MLPSeconds returns simulated seconds for macs multiply-accumulates.
func (c ComputeModel) MLPSeconds(macs int64) float64 {
	return float64(macs) / c.MACsPerSec
}

// CalibrateComputeModel measures this machine's actual aggregation and
// matmul throughput with short micro-benchmarks, so simulated times track
// the host the reproduction runs on. Takes a few hundred milliseconds.
func CalibrateComputeModel() ComputeModel {
	cm := ComputeModel{}

	// Aggregation: random graph, optimized kernel.
	const n, deg, d = 20000, 16, 64
	edges := make([]graph.Edge, n*deg)
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int32 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int32(state % uint64(mod))
	}
	for i := range edges {
		edges[i] = graph.Edge{Src: next(n), Dst: next(n)}
	}
	g := graph.MustCSR(n, edges)
	x := tensor.New(n, d)
	for i := range x.Data {
		x.Data[i] = float32(i%97) * 0.01
	}
	out := tensor.New(n, d)
	plan := spmm.NewPlan(g, spmm.DefaultOptions(2))
	if err := plan.Run(x, out); err != nil { // warm up
		panic(err)
	}
	const aggIters = 5
	start := time.Now()
	for i := 0; i < aggIters; i++ {
		if err := plan.Run(x, out); err != nil {
			panic(err)
		}
	}
	aggSec := time.Since(start).Seconds() / aggIters
	cm.AggElemsPerSec = float64(g.NumEdges) * d / aggSec

	// Dense: 256³ matmul.
	a := tensor.New(256, 256)
	b := tensor.New(256, 256)
	c := tensor.New(256, 256)
	for i := range a.Data {
		a.Data[i] = float32(i%31) * 0.1
		b.Data[i] = float32(i%29) * 0.1
	}
	tensor.MatMul(c, a, b) // warm up
	const mmIters = 10
	start = time.Now()
	for i := 0; i < mmIters; i++ {
		tensor.MatMul(c, a, b)
	}
	mmSec := time.Since(start).Seconds() / mmIters
	cm.MACsPerSec = float64(256*256*256) / mmSec
	return cm
}
