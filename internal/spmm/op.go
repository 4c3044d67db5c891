// Package spmm implements DistGNN's Aggregation Primitive (AP): the
// customized SpMM operation of §2.1 and §4 of the paper. An AP is the tuple
// (f_V, f_E, ⊗, ⊕, f_O): for every edge u→v, compute the elementwise binary
// operator ⊗ between the source vertex feature f_V[u] and the edge feature
// f_E[e], and reduce the result into the output f_O[v] with ⊕.
//
// Four kernel generations are provided, mirroring the paper's optimization
// ladder (Fig. 4):
//
//   - Baseline — Alg. 1: per-destination parallel loop with per-edge
//     interpreted operator dispatch, static scheduling (the DGL baseline).
//   - +Dynamic scheduling — chunked work queue over destination vertices.
//   - +Cache blocking — Alg. 2: source-range blocks processed outermost.
//   - +Loop reordering — Alg. 3: feature-dimension tiles held in registers
//     across a vertex's neighbors, with monomorphic specialized kernels.
//     LIBXSMM JITs the SIMD body; here the copylhs/sum hot path runs the
//     AVX assembly of tensor.GatherSum (pure Go off amd64 or under -tags
//     purego) and the other reordered kernels a Go stack tile.
//
// Training runs the full stack, DefaultOptions, with a block count chosen
// from the vertex count (model.Config.AggOpt overrides it); the lower rungs
// remain as Fig. 4 ablation arms. GatherAggGCNSum fuses the mini-batch and
// serving frontier gather into the copylhs/sum aggregate.
package spmm

import "fmt"

// Op is the elementwise ⊗ operator applied to (f_V[u], f_E[e]) pairs.
// CopyLHS/CopyRHS are the unary forms of Eq. 2 (one operand is NULL).
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpCopyLHS // use the vertex feature, ignore edge features
	OpCopyRHS // use the edge feature, ignore vertex features
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpCopyLHS:
		return "copylhs"
	case OpCopyRHS:
		return "copyrhs"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// IsUnary reports whether the operator uses only one operand.
func (o Op) IsUnary() bool { return o == OpCopyLHS || o == OpCopyRHS }

// Reduce is the elementwise ⊕ reducer that folds per-edge results into f_O.
type Reduce uint8

const (
	ReduceSum Reduce = iota
	ReduceMax
	ReduceMin
)

func (r Reduce) String() string {
	switch r {
	case ReduceSum:
		return "sum"
	case ReduceMax:
		return "max"
	case ReduceMin:
		return "min"
	}
	return fmt.Sprintf("Reduce(%d)", uint8(r))
}

// Identity returns the identity element of the reducer, used to initialize
// f_O before aggregation.
func (r Reduce) Identity() float32 {
	switch r {
	case ReduceSum:
		return 0
	case ReduceMax:
		return negInf
	case ReduceMin:
		return posInf
	}
	panic("spmm: unknown reducer")
}

const (
	posInf = float32(3.4028235e38)  // math.MaxFloat32
	negInf = float32(-3.4028235e38) // -math.MaxFloat32
)

// apply computes a ⊗ b for scalar operands. Used by the interpreted baseline
// kernel and by reference implementations in tests.
func (o Op) apply(a, b float32) float32 {
	switch o {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpCopyLHS:
		return a
	case OpCopyRHS:
		return b
	}
	panic("spmm: unknown op")
}

// fold computes acc ⊕ v for scalar operands.
func (r Reduce) fold(acc, v float32) float32 {
	switch r {
	case ReduceSum:
		return acc + v
	case ReduceMax:
		if v > acc {
			return v
		}
		return acc
	case ReduceMin:
		if v < acc {
			return v
		}
		return acc
	}
	panic("spmm: unknown reducer")
}
