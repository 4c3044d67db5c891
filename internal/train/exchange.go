package train

import (
	"slices"

	"distgnn/internal/partition"
	"distgnn/internal/tensor"
)

// xplan holds one rank's view of the split-vertex communication structure:
// for every bin (cd-r splits the split-vertex set into Delay bins, §5.3) and
// every peer rank, the local row IDs involved in each direction of the
// 1-level tree exchange of Alg. 4. Lists are built from Partitioning.Splits
// in a single deterministic order on every rank, so position i of a sender's
// list pairs with position i of the receiver's list.
type xplan struct {
	bins int
	// leafSend[bin][peer]: rows this rank sends to root=peer (it is a leaf).
	leafSend [][][]int32
	// rootRecv[bin][peer]: rows this rank reduces when leaf=peer's partials arrive.
	rootRecv [][][]int32
	// rootSend[bin][peer]: rows this rank sends back to leaf=peer (it is the root).
	rootSend [][][]int32
	// leafRecv[bin][peer]: rows this rank overwrites when root=peer's totals arrive.
	leafRecv [][][]int32
	// rootRows is the sorted union of every rootRecv list: the only rows
	// of the stale leaf-partial sums (rankCtx.remoteAdd) that are ever
	// written, so the only rows applyStale has to fold.
	rootRows []int32
}

// buildXPlans constructs per-rank exchange plans with the split-vertex set
// divided into bins contiguous chunks (bins=1 reproduces cd-0's full
// exchange; bins=r gives cd-r's per-epoch subsets).
func buildXPlans(pt *partition.Partitioning, bins int) []*xplan {
	if bins < 1 {
		bins = 1
	}
	k := pt.K
	plans := make([]*xplan, k)
	for r := 0; r < k; r++ {
		p := &xplan{bins: bins}
		p.leafSend = makeBinPeer(bins, k)
		p.rootRecv = makeBinPeer(bins, k)
		p.rootSend = makeBinPeer(bins, k)
		p.leafRecv = makeBinPeer(bins, k)
		plans[r] = p
	}
	nSplits := len(pt.Splits)
	for s, sv := range pt.Splits {
		bin := 0
		if nSplits > 0 {
			bin = s * bins / nSplits
		}
		root := sv.Clones[0]
		for _, leaf := range sv.Clones[1:] {
			plans[leaf.Part].leafSend[bin][root.Part] = append(plans[leaf.Part].leafSend[bin][root.Part], leaf.Local)
			plans[root.Part].rootRecv[bin][leaf.Part] = append(plans[root.Part].rootRecv[bin][leaf.Part], root.Local)
			plans[root.Part].rootSend[bin][leaf.Part] = append(plans[root.Part].rootSend[bin][leaf.Part], root.Local)
			plans[leaf.Part].leafRecv[bin][root.Part] = append(plans[leaf.Part].leafRecv[bin][root.Part], leaf.Local)
		}
	}
	for _, p := range plans {
		for _, byPeer := range p.rootRecv {
			for _, rows := range byPeer {
				p.rootRows = append(p.rootRows, rows...)
			}
		}
		slices.Sort(p.rootRows)
		p.rootRows = slices.Compact(p.rootRows)
	}
	return plans
}

func makeBinPeer(bins, k int) [][][]int32 {
	out := make([][][]int32, bins)
	for b := range out {
		out[b] = make([][]int32, k)
	}
	return out
}

// packRows gathers the listed rows of mat into one contiguous buffer —
// the pre-processing gather of Alg. 4 (lines 10, 15) — reusing dst's
// storage when it has the room.
func packRows(dst []float32, mat *tensor.Matrix, rows []int32) []float32 {
	if len(rows) == 0 {
		return nil
	}
	dst = slices.Grow(dst[:0], len(rows)*mat.Cols)
	for _, r := range rows {
		dst = append(dst, mat.Row(int(r))...)
	}
	return dst
}

// addRows scatter-reduces buf into the listed rows (Alg. 4 line 14).
func addRows(mat *tensor.Matrix, rows []int32, buf []float32) {
	d := mat.Cols
	for i, r := range rows {
		tensor.Accumulate(mat.Row(int(r)), buf[i*d:(i+1)*d])
	}
}

// setRows scatter-writes buf into the listed rows (Alg. 4 line 20).
func setRows(mat *tensor.Matrix, rows []int32, buf []float32) {
	d := mat.Cols
	for i, r := range rows {
		copy(mat.Row(int(r)), buf[i*d:(i+1)*d])
	}
}
