package spmm

import (
	"fmt"

	"distgnn/internal/graph"
	"distgnn/internal/parallel"
)

// Schedule selects how destination vertices are distributed over workers.
type Schedule uint8

const (
	// ScheduleStatic hands each worker one contiguous chunk (OpenMP static).
	ScheduleStatic Schedule = iota
	// ScheduleDynamic hands out fixed-size chunks from an atomic work queue
	// (OpenMP dynamic), so power-law degree skew self-balances.
	ScheduleDynamic
)

func (s Schedule) String() string {
	if s == ScheduleDynamic {
		return "dynamic"
	}
	return "static"
}

// Options configure the optimized aggregation kernel — each field is one
// rung of the paper's optimization ladder (Fig. 4).
type Options struct {
	// NumBlocks is nB of Alg. 2: the number of source-range cache blocks.
	// 1 disables blocking.
	NumBlocks int
	// Schedule selects static or dynamic destination scheduling.
	Schedule Schedule
	// Reordered enables the Alg. 3 loop reordering: feature-dimension tiles
	// accumulated in a register buffer and written once per (block, vertex).
	Reordered bool
	// ChunkSize is the number of destination vertices per dynamic work item.
	// Defaults to 64.
	ChunkSize int
}

// DefaultOptions is the full optimization stack with a given block count.
func DefaultOptions(numBlocks int) Options {
	return Options{NumBlocks: numBlocks, Schedule: ScheduleDynamic, Reordered: true}
}

// Plan is a reusable, graph-specific execution plan for the optimized
// aggregation primitive. Building the per-block CSR matrices (line 2 of
// Alg. 2) is done once here and amortized over every training epoch.
type Plan struct {
	G       *graph.CSR
	Opt     Options
	blocked *graph.Blocked // nil when NumBlocks == 1
}

// NewPlan prepares an execution plan for g with the given options.
func NewPlan(g *graph.CSR, opt Options) *Plan {
	if opt.ChunkSize <= 0 {
		opt.ChunkSize = 64
	}
	if opt.NumBlocks < 1 {
		opt.NumBlocks = 1
	}
	p := &Plan{G: g, Opt: opt}
	if opt.NumBlocks > 1 {
		p.blocked = graph.NewBlocked(g, opt.NumBlocks)
	}
	return p
}

// Run executes the aggregation primitive described by a using the plan's
// optimization configuration. a.G must be the graph the plan was built for.
func (p *Plan) Run(a *Args) error {
	if a.G != p.G {
		return fmt.Errorf("spmm: args graph differs from plan graph")
	}
	if err := a.Validate(); err != nil {
		return err
	}
	a.initOutput()
	if p.blocked == nil {
		p.runBlock(a, a.G)
	} else {
		// Blocks are processed outermost (Alg. 2 line 3): all workers sweep
		// destinations for one source block before moving to the next, so
		// the active block of f_V stays cache resident.
		for _, blk := range p.blocked.Blocks {
			p.runBlock(a, blk)
		}
	}
	a.finalizeEmpty()
	return nil
}

// runBlock aggregates all edges of one (possibly whole-graph) CSR block.
func (p *Plan) runBlock(a *Args, blk *graph.CSR) {
	body := p.vertexBody(a, blk)
	p.forEachDst(blk, body)
}

// forEachDst drives the destination-vertex loop under the configured
// schedule on the shared worker pool. fn processes the half-open vertex
// range [v0, v1).
func (p *Plan) forEachDst(blk *graph.CSR, fn func(v0, v1 int)) {
	if p.Opt.Schedule == ScheduleStatic {
		parallel.For(blk.NumVertices, 1, fn)
		return
	}
	parallel.Dynamic(blk.NumVertices, p.Opt.ChunkSize, fn)
}

// vertexBody returns the per-vertex-range aggregation body: either the
// specialized row-kernel loop, or the Alg. 3 reordered loop.
func (p *Plan) vertexBody(a *Args, blk *graph.CSR) func(v0, v1 int) {
	if p.Opt.Reordered {
		if body := reorderedBody(a, blk); body != nil {
			return body
		}
	}
	kern := kernelFor(a.Op, a.Red)
	return func(v0, v1 int) {
		for v := v0; v < v1; v++ {
			lo, hi := blk.Indptr[v], blk.Indptr[v+1]
			if lo == hi {
				continue
			}
			dst := a.FO.Row(v)
			for q := lo; q < hi; q++ {
				var src, edge []float32
				if a.FV != nil {
					src = a.FV.Row(int(blk.Indices[q]))
				}
				if a.FE != nil {
					edge = a.FE.Row(int(blk.EdgeIDs[q]))
				}
				kern(dst, src, edge)
			}
		}
	}
}
