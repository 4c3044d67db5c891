package comm

// ComputeModel converts per-rank work counters into simulated per-socket
// compute time. The scaling experiments (Fig. 5/6) model each partition as
// its own full CPU socket; running 64–128 ranks as goroutines on one
// machine would serialize them and destroy the scaling shape, so compute
// time is accounted from work counters at single-socket rates instead,
// while the data flow itself is executed for real. The rates are fixed,
// not timed on the host, so every simulated figure is a function of the
// seed alone.
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
