package bench

import "fmt"

// workmodel.go is the analytic accounting the paper uses in its memory and
// work analyses: the GraphSAGE memory model of §6.3/Table 6 and the per-hop
// aggregation work model of Tables 7–8 (ops = vertices × degree × feature
// width).

// hopWork describes the aggregation work of one hop: the number of
// destination vertices, the (average or sampled) degree feeding each, and
// the feature width at that hop.
type hopWork struct {
	Vertices int
	Degree   float64
	Feat     int
}

// Ops returns the hop's aggregation work in element operations —
// the paper's "#vertices × avg. deg. × #feats" product.
func (h hopWork) Ops() float64 {
	return float64(h.Vertices) * h.Degree * float64(h.Feat)
}

// totalOps sums hop work — one mini-batch (Table 7) or one full-batch
// partition epoch (Table 8).
func totalOps(hops []hopWork) float64 {
	var total float64
	for _, h := range hops {
		total += h.Ops()
	}
	return total
}

// fullBatchHops builds Table 8's rows: every hop touches all partition
// vertices at the graph's average degree; feature widths per hop are
// (input, hidden, hidden, ...) from the outermost hop inward.
func fullBatchHops(partitionVertices int, avgDegree float64, feats []int) []hopWork {
	hops := make([]hopWork, len(feats))
	for i, f := range feats {
		hops[i] = hopWork{Vertices: partitionVertices, Degree: avgDegree, Feat: f}
	}
	return hops
}

// memoryParams feeds the GraphSAGE memory model of §6.3: a 3-layer model
// with hidden sizes H1, H2 over a partition of N vertices with F input
// features and L label classes.
type memoryParams struct {
	N             int // partition vertices (split + non-split)
	F, H1, H2, L  int
	Edges         int // partition edges (CSR structure memory)
	SplitVertices int // vertices needing communication buffers
	Delay         int // r of cd-r (in-flight buffering multiplier)
}

// Algorithm names accepted by memoryModel.
const (
	algo0C  = "0c"
	algoCD0 = "cd-0"
	algoCDR = "cd-r"
)

// memoryModel returns the per-partition peak memory estimate in bytes for one
// of the three distributed algorithms, following the paper's inventory:
// (1) weight matrices, (2) input features, (3) aggregation outputs per
// layer, (4) MLP outputs per layer (all retained for backprop), plus graph
// structure and algorithm-specific communication buffers.
func memoryModel(p memoryParams, algo string) (int64, error) {
	const bytesPerFloat = 4
	n := int64(p.N)
	f, h1, h2, l := int64(p.F), int64(p.H1), int64(p.H2), int64(p.L)

	weights := f*h1 + h1*h2 + h2*l
	input := n * f
	aggOut := n * (f + h1 + h2)
	mlpOut := n * (h1 + h2 + l)
	activations := (weights + input + aggOut + mlpOut) * bytesPerFloat
	// Gradients of weights and of the retained activations.
	gradients := (weights + aggOut + mlpOut) * bytesPerFloat
	structure := int64(p.Edges) * 8 // indices + edge IDs, 4B each

	base := activations + gradients + structure

	commWidth := (f + h1 + h2) * bytesPerFloat
	split := int64(p.SplitVertices)
	switch algo {
	case algo0C:
		return base, nil
	case algoCD0:
		// Send + receive staging for one synchronous exchange.
		return base + 2*split*commWidth, nil
	case algoCDR:
		// Capture + stale-remote + stale-total buffers sized to the full
		// partition, plus the payloads DRPA's delay queues hold. Each epoch
		// exchanges one of Delay bins of the split vertices; its partials
		// (at the root) and its totals (at the leaf) wait Delay epochs,
		// keyed epoch+Delay, so at an epoch's end each queue holds Delay+1
		// bins' bundles, the one falling due included.
		delay := max(int64(p.Delay), 1)
		bin := (split + delay - 1) / delay
		buffers := 3 * n * commWidth
		inflight := 2 * (delay + 1) * bin * commWidth // partials in + totals back
		return base + buffers + inflight, nil
	default:
		return 0, fmt.Errorf("bench: unknown algorithm %q", algo)
	}
}
