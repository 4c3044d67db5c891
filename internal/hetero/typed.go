// Package hetero provides the heterogeneous-graph substrate and the
// relational GCN model behind Fig. 2(d) of the paper, which trains
// RGCN-hetero on the AM (Amsterdam Museum) dataset. A TypedGraph carries a
// relation label per edge; RGCN aggregates each relation through its own
// weight matrix. The aggregation reuses the spmm kernels with one
// per-relation CSR, so the single-socket optimizations (blocking, dynamic
// scheduling, loop reordering) apply per relation exactly as in the
// homogeneous case.
package hetero

import (
	"fmt"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
)

// TypedGraph is a directed multigraph whose edges carry relation types.
type TypedGraph struct {
	NumRelations int

	perRel []*graph.CSR // perRel[r] holds only relation r's edges
}

// NewTypedGraph validates edge types and builds the per-relation CSRs.
func NewTypedGraph(g *graph.CSR, edgeType []int32, numRelations int) (*TypedGraph, error) {
	if len(edgeType) != g.NumEdges {
		return nil, fmt.Errorf("hetero: %d edge types for %d edges", len(edgeType), g.NumEdges)
	}
	if numRelations < 1 {
		return nil, fmt.Errorf("hetero: need ≥1 relation, got %d", numRelations)
	}
	for i, r := range edgeType {
		if r < 0 || int(r) >= numRelations {
			return nil, fmt.Errorf("hetero: edge %d has relation %d outside [0,%d)", i, r, numRelations)
		}
	}
	t := &TypedGraph{NumRelations: numRelations}
	perRelEdges := make([][]graph.Edge, numRelations)
	for eid, e := range g.Edges() {
		r := edgeType[eid]
		perRelEdges[r] = append(perRelEdges[r], e)
	}
	for r := 0; r < numRelations; r++ {
		sub, err := graph.NewCSR(g.NumVertices, perRelEdges[r])
		if err != nil {
			return nil, err
		}
		t.perRel = append(t.perRel, sub)
	}
	return t, nil
}

// Relation returns relation r's subgraph (full vertex ID space, local
// edge IDs).
func (t *TypedGraph) Relation(r int) *graph.CSR { return t.perRel[r] }

// SyntheticAM builds the heterograph stand-in for the AM dataset: the
// am-sim graph with relation labels derived from the endpoint communities
// (artifacts in AM link through typed properties — material, production,
// content — which correlate with artifact categories; community-pair
// hashing reproduces that correlation).
func SyntheticAM(scale float64, numRelations int) (*datasets.Dataset, *TypedGraph, error) {
	ds, err := datasets.Load("am-sim", scale)
	if err != nil {
		return nil, nil, err
	}
	edgeType := make([]int32, ds.G.NumEdges)
	for eid, e := range ds.G.Edges() {
		cs := ds.Community[e.Src]
		cd := ds.Community[e.Dst]
		edgeType[eid] = (cs*7 + cd*13) % int32(numRelations)
	}
	tg, err := NewTypedGraph(ds.G, edgeType, numRelations)
	if err != nil {
		return nil, nil, err
	}
	return ds, tg, nil
}
