package spmm

import (
	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// tileW is the feature-dimension tile width W of Alg. 3 for the reordered
// kernels written in Go: a fixed-size stack buffer of tileW floats stands
// in for a register block, so each output tile f_O[v][j:j+W] is loaded
// once, accumulated across all of v's neighbors in the block, and stored
// once. The copylhs/sum hot path uses tensor.GatherSum instead, which
// keeps the tile in real SIMD registers on amd64.
const tileW = 16

// reorderedBody returns a monomorphic Alg. 3 loop body for the hot (⊗, ⊕)
// combinations, or nil when the combination has no specialized reordered
// implementation (the caller then falls back to the row-kernel body).
func reorderedBody(a *Args, blk *graph.CSR) func(v0, v1 int) {
	switch {
	case a.Op == OpCopyLHS && a.Red == ReduceSum:
		return func(v0, v1 int) { reorderedCopyLHSSum(a, blk, v0, v1) }
	case a.Op == OpMul && a.Red == ReduceSum:
		return func(v0, v1 int) { reorderedMulSum(a, blk, v0, v1) }
	case a.Op == OpAdd && a.Red == ReduceSum:
		return func(v0, v1 int) { reorderedAddSum(a, blk, v0, v1) }
	case a.Op == OpCopyLHS && a.Red == ReduceMax:
		return func(v0, v1 int) { reorderedCopyLHSMax(a, blk, v0, v1) }
	default:
		return nil
	}
}

// reorderedCopyLHSSum: f_O[v] += Σ_u f_V[u] — the GNN training hot path.
// tensor.GatherSum holds each output row in SIMD registers across all of
// v's neighbors in the block, loading and storing it once.
func reorderedCopyLHSSum(a *Args, blk *graph.CSR, v0, v1 int) {
	d := a.FO.Cols
	for v := v0; v < v1; v++ {
		lo, hi := blk.Indptr[v], blk.Indptr[v+1]
		tensor.GatherSum(a.FO.Row(v), a.FV.Data, blk.Indices[lo:hi], d)
	}
}

// reorderedMulSum: f_O[v] += Σ_e f_V[u]·f_E[e] (weighted aggregation).
func reorderedMulSum(a *Args, blk *graph.CSR, v0, v1 int) {
	d := a.FO.Cols
	fv, fe, fo := a.FV.Data, a.FE.Data, a.FO.Data
	for v := v0; v < v1; v++ {
		lo, hi := int(blk.Indptr[v]), int(blk.Indptr[v+1])
		if lo == hi {
			continue
		}
		nbr := blk.Indices[lo:hi]
		ids := blk.EdgeIDs[lo:hi]
		base := v * d
		var j int
		for ; j+tileW <= d; j += tileW {
			var t [tileW]float32
			copy(t[:], fo[base+j:base+j+tileW])
			for i, u := range nbr {
				s := int(u)*d + j
				e := int(ids[i])*d + j
				src := fv[s : s+tileW : s+tileW]
				ef := fe[e : e+tileW : e+tileW]
				for k := 0; k < tileW; k++ {
					t[k] += src[k] * ef[k]
				}
			}
			copy(fo[base+j:base+j+tileW], t[:])
		}
		for ; j < d; j++ {
			t := fo[base+j]
			for i, u := range nbr {
				t += fv[int(u)*d+j] * fe[int(ids[i])*d+j]
			}
			fo[base+j] = t
		}
	}
}

// reorderedAddSum: f_O[v] += Σ_e (f_V[u] + f_E[e]).
func reorderedAddSum(a *Args, blk *graph.CSR, v0, v1 int) {
	d := a.FO.Cols
	fv, fe, fo := a.FV.Data, a.FE.Data, a.FO.Data
	for v := v0; v < v1; v++ {
		lo, hi := int(blk.Indptr[v]), int(blk.Indptr[v+1])
		if lo == hi {
			continue
		}
		nbr := blk.Indices[lo:hi]
		ids := blk.EdgeIDs[lo:hi]
		base := v * d
		var j int
		for ; j+tileW <= d; j += tileW {
			var t [tileW]float32
			copy(t[:], fo[base+j:base+j+tileW])
			for i, u := range nbr {
				s := int(u)*d + j
				e := int(ids[i])*d + j
				src := fv[s : s+tileW : s+tileW]
				ef := fe[e : e+tileW : e+tileW]
				for k := 0; k < tileW; k++ {
					t[k] += src[k] + ef[k]
				}
			}
			copy(fo[base+j:base+j+tileW], t[:])
		}
		for ; j < d; j++ {
			t := fo[base+j]
			for i, u := range nbr {
				t += fv[int(u)*d+j] + fe[int(ids[i])*d+j]
			}
			fo[base+j] = t
		}
	}
}

// reorderedCopyLHSMax: f_O[v] = max over neighbors of f_V[u] (max pooling).
func reorderedCopyLHSMax(a *Args, blk *graph.CSR, v0, v1 int) {
	d := a.FO.Cols
	fv, fo := a.FV.Data, a.FO.Data
	for v := v0; v < v1; v++ {
		lo, hi := int(blk.Indptr[v]), int(blk.Indptr[v+1])
		if lo == hi {
			continue
		}
		nbr := blk.Indices[lo:hi]
		base := v * d
		var j int
		for ; j+tileW <= d; j += tileW {
			var t [tileW]float32
			copy(t[:], fo[base+j:base+j+tileW])
			for _, u := range nbr {
				s := int(u)*d + j
				src := fv[s : s+tileW : s+tileW]
				for k := 0; k < tileW; k++ {
					if src[k] > t[k] {
						t[k] = src[k]
					}
				}
			}
			copy(fo[base+j:base+j+tileW], t[:])
		}
		for ; j < d; j++ {
			t := fo[base+j]
			for _, u := range nbr {
				if s := fv[int(u)*d+j]; s > t {
					t = s
				}
			}
			fo[base+j] = t
		}
	}
}
