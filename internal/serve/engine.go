// Package serve is the online inference layer on top of a trained DistGNN
// checkpoint: it answers "what is the prediction/embedding for vertex v"
// over HTTP with production-shaped mechanics — request coalescing into
// micro-batches and a concurrent byte-budgeted feature/embedding cache (the
// paper's cache-reuse insight, promoted from the internal/cachesim
// simulator into a real serving data structure).
//
// The engine extracts per-request k-hop computation blocks with
// internal/minibatch's sampler/block machinery. In exact mode
// (full-neighborhood blocks) the per-vertex activations are bit-identical
// to a full-graph Forward of the training-time model: block aggregation
// follows the CSR neighbor order the unblocked spmm kernel uses, the dense
// layers run through the same tensor kernels, and batch composition never
// changes a row's float-op sequence. That makes serving results independent
// of batching and caching — the property the serve tests pin.
package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"distgnn/internal/datasets"
	"distgnn/internal/featstore"
	"distgnn/internal/graph"
	"distgnn/internal/minibatch"
	"distgnn/internal/model"
	"distgnn/internal/nn"
	"distgnn/internal/obs"
	"distgnn/internal/spmm"
	"distgnn/internal/tensor"
)

// Arch names a servable model family.
type Arch string

const (
	// ArchGraphSAGE serves checkpoints written by the full-batch GraphSAGE
	// trainer (GCN aggregator).
	ArchGraphSAGE Arch = "graphsage"
	// ArchGAT serves multi-head graph-attention checkpoints.
	ArchGAT Arch = "gat"
)

// ModelSpec describes the architecture a checkpoint must match. The zero
// values of InDim/OutDim are filled from the dataset.
type ModelSpec struct {
	Arch      Arch
	InDim     int
	Hidden    int
	OutDim    int
	NumLayers int
	// NumHeads is the GAT attention head count (ignored for GraphSAGE).
	NumHeads int
}

func (s ModelSpec) String() string {
	if s.Arch == ArchGAT {
		return fmt.Sprintf("gat(in=%d hidden=%d out=%d layers=%d heads=%d)",
			s.InDim, s.Hidden, s.OutDim, s.NumLayers, s.NumHeads)
	}
	return fmt.Sprintf("graphsage(in=%d hidden=%d out=%d layers=%d)",
		s.InDim, s.Hidden, s.OutDim, s.NumLayers)
}

// EngineStats are the engine-level counters surfaced in /stats.
type EngineStats struct {
	// Inferences counts engine invocations (one per micro-batch).
	Inferences int64 `json:"inferences"`
	// SeedVertices counts vertices inferred across all invocations.
	SeedVertices int64 `json:"seed_vertices"`
	// InputFrontierVertices counts outermost-frontier vertices gathered —
	// the feature-fetch volume batching and dedup amortize.
	InputFrontierVertices int64 `json:"input_frontier_vertices"`
}

// Engine runs forward-only inference over k-hop blocks. It is safe for
// concurrent use: the dense and aggregation passes touch only request-local
// state, and the sampled-mode RNG is guarded by a mutex.
type Engine struct {
	ds      *datasets.Dataset
	spec    ModelSpec
	fanouts []int // nil → exact full-neighborhood mode
	params  []*nn.Param
	// Exactly one of sage and gat is set: the model's parameters only,
	// run forward-only through its ApplyLayer.
	sage *model.GraphSAGE
	gat  *model.GAT
	feat *featstore.Cache[int32, []float32]
	// gather materializes the raw input features of a block's outermost
	// frontier, the one stage of inference whose data may not be resident
	// in this process: featstore.Local's Gather over the whole matrix, or
	// in shard mode featstore.Sharded's, which reads the owned slab and
	// fetches halo rows from their owner ranks (tc gets the per-peer RTT
	// spans). Everything downstream is identical either way, which keeps
	// sharded exact-mode logits bit-identical to single-process ones.
	gather func(frontier []int32, tc *obs.TraceCtx) (*tensor.Matrix, error)
	// feats is the resident feature store, empty in shard mode. The
	// exact-mode GraphSAGE path aggregates straight from it through the
	// fused gather kernel when the feature cache is disabled.
	feats spmm.FeatRows
	// mut, when non-nil, is the graph mutation layer (Config.EnableUpdates):
	// each request loads one epoch-versioned Snapshot and extracts its
	// blocks against that consistent view. Nil = frozen graph, identical
	// behavior to before the mutation plane existed.
	mut *graph.Mutable

	samplerMu sync.Mutex
	sampler   *minibatch.Sampler

	inferences   atomic.Int64
	seedVertices atomic.Int64
	frontierIn   atomic.Int64
}

// NewEngine builds the forward-only parameter set for spec, validates it
// against ds, and prepares the block extractor. fanouts selects sampled
// inference (len must equal NumLayers); nil or empty selects exact
// full-neighborhood inference. featureCacheBytes > 0 enables the gathered-
// feature cache.
func NewEngine(ds *datasets.Dataset, spec ModelSpec, fanouts []int, featureCacheBytes int64) (*Engine, error) {
	if spec.InDim == 0 {
		spec.InDim = ds.Features.Cols
	}
	if spec.OutDim == 0 {
		spec.OutDim = ds.NumClasses
	}
	if spec.InDim != ds.Features.Cols {
		return nil, fmt.Errorf("serve: model InDim %d != dataset feature width %d", spec.InDim, ds.Features.Cols)
	}
	e := &Engine{
		ds:    ds,
		spec:  spec,
		feat:  featstore.NewCache[int32, []float32](featureCacheBytes, 0),
		feats: spmm.RowsOf(ds.Features),
	}
	local := featstore.NewLocal(e.feats, e.feat)
	e.gather = func(frontier []int32, _ *obs.TraceCtx) (*tensor.Matrix, error) {
		return local.Gather(frontier)
	}
	// model's constructors validate the config and name the parameters
	// exactly as training does, so nn.ReadParams accepts exactly the
	// checkpoints the trainers write.
	switch spec.Arch {
	case ArchGraphSAGE:
		sage, err := model.New(nil, model.Config{
			InDim: spec.InDim, Hidden: spec.Hidden, OutDim: spec.OutDim, NumLayers: spec.NumLayers,
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		e.sage, e.params = sage, sage.Params()
	case ArchGAT:
		gat, err := model.NewGAT(nil, model.GATConfig{
			InDim: spec.InDim, Hidden: spec.Hidden, OutDim: spec.OutDim,
			NumLayers: spec.NumLayers, NumHeads: spec.NumHeads,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: %w — if the checkpoint's output width was padded to a NumHeads multiple, pass it via OutDim/-out-dim", err)
		}
		e.gat, e.params, e.spec.NumHeads = gat, gat.Params(), gat.Cfg.NumHeads
	default:
		return nil, fmt.Errorf("serve: unknown arch %q (graphsage or gat)", spec.Arch)
	}
	if len(fanouts) > 0 {
		if len(fanouts) != spec.NumLayers {
			return nil, fmt.Errorf("serve: %d fanouts for %d layers", len(fanouts), spec.NumLayers)
		}
		s, err := minibatch.NewSampler(ds.G, fanouts, 1)
		if err != nil {
			return nil, err
		}
		e.sampler = s
		e.fanouts = append([]int(nil), fanouts...)
	}
	return e, nil
}

// Params returns the engine's parameter list in checkpoint order.
func (e *Engine) Params() []*nn.Param { return e.params }

// Spec returns the resolved model spec.
func (e *Engine) Spec() ModelSpec { return e.spec }

// Exact reports whether the engine runs full-neighborhood inference.
func (e *Engine) Exact() bool { return e.sampler == nil }

// Mode describes the block-extraction mode for logs and /stats.
func (e *Engine) Mode() string {
	if e.Exact() {
		return "exact"
	}
	parts := make([]string, len(e.fanouts))
	for i, f := range e.fanouts {
		parts[i] = fmt.Sprint(f)
	}
	return "sampled(" + strings.Join(parts, ",") + ")"
}

// FeatureCacheStats snapshots the gathered-feature cache counters.
func (e *Engine) FeatureCacheStats() featstore.CacheStats { return e.feat.Stats() }

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Inferences:            e.inferences.Load(),
		SeedVertices:          e.seedVertices.Load(),
		InputFrontierVertices: e.frontierIn.Load(),
	}
}

// topo returns the per-request topology view: the current mutation
// snapshot when updates are enabled, the frozen dataset CSR otherwise.
func (e *Engine) topo() graph.Topology {
	if e.mut != nil {
		return e.mut.Snapshot()
	}
	return e.ds.G
}

// invalidateFeatures drops the given vertices from the gathered-feature
// cache and returns how many were resident — the feature leg of the
// mutation plane's targeted invalidation.
func (e *Engine) invalidateFeatures(ids []int32) int {
	n := 0
	for _, v := range ids {
		if e.feat.Remove(v) {
			n++
		}
	}
	return n
}

// Infer runs forward-only inference for the seed vertices and returns the
// final-layer output matrix, one row per seed in input order. Duplicate
// seeds are allowed (each gets its own row).
func (e *Engine) Infer(seeds []int32) (*tensor.Matrix, error) {
	return e.InferTraced(seeds, nil)
}

// InferTraced is Infer with per-stage observability: a non-nil tc gets
// sample/gather/forward spans (plus per-peer halo RTT spans in shard mode),
// and its trace ID rides the halo fetch frames. Tracing only observes — the
// returned bits are identical to Infer's.
func (e *Engine) InferTraced(seeds []int32, tc *obs.TraceCtx) (*tensor.Matrix, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("serve: empty seed set")
	}
	// One topology load per request: every block of this inference is
	// extracted against the same snapshot even if updates land mid-flight.
	topo := e.topo()
	for _, v := range seeds {
		if v < 0 || int(v) >= topo.NumV() {
			return nil, fmt.Errorf("serve: vertex %d out of range [0,%d)", v, topo.NumV())
		}
	}
	var s *minibatch.Sample
	stop := tc.StartSpan("sample")
	if e.sampler != nil {
		e.samplerMu.Lock()
		s = e.sampler.Sample(seeds)
		e.samplerMu.Unlock()
	} else {
		s = minibatch.FullSample(topo, seeds, e.spec.NumLayers)
	}
	stop()
	// The fused path skips the gather: layer 0 reads frontier rows straight
	// from e.feats.
	var x *tensor.Matrix
	if !e.fusedExact() {
		var err error
		stop = tc.StartSpan("gather")
		x, err = e.gather(s.InputFrontier(), tc)
		stop()
		if err != nil {
			return nil, err
		}
	}

	// Layer 0 reads the gathered matrix, or on the fused path the resident
	// store through the input frontier.
	rows, frontier := e.feats, s.InputFrontier()
	if x != nil {
		rows, frontier = spmm.RowsOf(x), nil
	}
	e.inferences.Add(1)
	e.seedVertices.Add(int64(len(seeds)))
	e.frontierIn.Add(int64(len(s.InputFrontier())))

	stop = tc.StartSpan("forward")
	var out *tensor.Matrix
	if e.gat != nil {
		// x is set: GAT never takes the fused path.
		out = x
		for l := len(s.Blocks) - 1; l >= 0; l-- {
			b := s.Blocks[l]
			out = e.gat.ApplyLayer(len(s.Blocks)-1-l, b.Indptr, b.Indices, b.SelfIdx, out)
		}
	} else {
		out = minibatch.SageForward(e.sage, s, rows, frontier, false)
	}
	stop()
	return out, nil
}

// fusedExact reports whether this request shape can take the fused
// gather→aggregate path: exact GraphSAGE over the in-process store, with
// the feature cache disabled (a populated cache changes nothing bitwise,
// but serving its hits requires materializing the gather, so the fused
// path only engages when there is no cache to consult). The fused path
// gives the gathered path's bits.
func (e *Engine) fusedExact() bool {
	return e.sampler == nil && e.spec.Arch == ArchGraphSAGE && e.feat == nil && e.feats.Valid()
}
