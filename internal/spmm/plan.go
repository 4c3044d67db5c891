package spmm

import (
	"distgnn/internal/graph"
	"distgnn/internal/parallel"
	"distgnn/internal/tensor"
)

// chunkSize is the number of destination vertices per dynamic work item.
const chunkSize = 64

// Options configure the optimized aggregation kernel. Destinations are
// always scheduled dynamically (the +DS rung of Fig. 4); each field adds
// one further rung of the paper's optimization ladder.
type Options struct {
	// NumBlocks is nB of Alg. 2: the number of source-range cache blocks.
	// 1 disables blocking.
	NumBlocks int
	// Reordered enables the Alg. 3 loop reordering: each output row is held
	// in registers across all of a vertex's neighbors in the block and
	// written once per (block, vertex).
	Reordered bool
}

// DefaultOptions is the full optimization stack with a given block count.
func DefaultOptions(numBlocks int) Options {
	return Options{NumBlocks: numBlocks, Reordered: true}
}

// Plan is a reusable, graph-specific execution plan for the optimized
// copylhs/sum aggregation f_O[v] = Σ_{u→v} f_V[u], the one (⊗, ⊕) pair GNN
// training runs. Building the per-block CSR matrices (line 2 of Alg. 2) is
// done once here and amortized over every training epoch.
type Plan struct {
	G       *graph.CSR
	Opt     Options
	blocked *graph.Blocked // nil when NumBlocks == 1
}

// NewPlan prepares an execution plan for g with the given options.
func NewPlan(g *graph.CSR, opt Options) *Plan {
	if opt.NumBlocks < 1 {
		opt.NumBlocks = 1
	}
	p := &Plan{G: g, Opt: opt}
	if opt.NumBlocks > 1 {
		p.blocked = graph.NewBlocked(g, opt.NumBlocks)
	}
	return p
}

// Run aggregates fv over the plan's graph into fo: fo[v] = Σ_{u→v} fv[u].
// Both are |V|×d; fo is overwritten and must not alias fv.
func (p *Plan) Run(fv, fo *tensor.Matrix) error {
	a := Args{G: p.G, FV: fv, FO: fo, Op: OpCopyLHS, Red: ReduceSum}
	if err := a.Validate(); err != nil {
		return err
	}
	fo.Zero()
	if p.blocked == nil {
		p.runBlock(fv, fo, p.G)
		return nil
	}
	// Blocks are processed outermost (Alg. 2 line 3): all workers sweep
	// destinations for one source block before moving to the next, so the
	// active block of f_V stays cache resident.
	for _, blk := range p.blocked.Blocks {
		p.runBlock(fv, fo, blk)
	}
	return nil
}

// runBlock aggregates all edges of one (possibly whole-graph) CSR block,
// handing out destination chunks from the pool's work queue (OpenMP
// dynamic) so power-law degree skew self-balances.
func (p *Plan) runBlock(fv, fo *tensor.Matrix, blk *graph.CSR) {
	d := fo.Cols
	if p.Opt.Reordered {
		// Alg. 3: tensor.GatherSum holds each output row in SIMD registers
		// across all of v's neighbors in the block, loading and storing it
		// once.
		parallel.Dynamic(blk.NumVertices, chunkSize, func(v0, v1 int) {
			for v := v0; v < v1; v++ {
				lo, hi := blk.Indptr[v], blk.Indptr[v+1]
				tensor.GatherSum(fo.Row(v), fv.Data, blk.Indices[lo:hi], d)
			}
		})
		return
	}
	// Unreordered: one GatherSum per edge, so the output row is loaded and
	// stored once per neighbor.
	parallel.Dynamic(blk.NumVertices, chunkSize, func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			dst := fo.Row(v)
			for q := blk.Indptr[v]; q < blk.Indptr[v+1]; q++ {
				tensor.GatherSum(dst, fv.Data, blk.Indices[q:q+1], d)
			}
		}
	})
}
