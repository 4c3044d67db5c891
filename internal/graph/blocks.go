package graph

// Blocked is the cache-blocking decomposition of Alg. 2 in the paper: the
// source-vertex range [0, |V|) is split into nB contiguous blocks of size
// B = ⌈|V|/nB⌉, and a CSR matrix is built per block containing only the
// edges whose source falls in that block. Iterating blocks outermost keeps
// each block of the source feature matrix f_V cache resident while all
// destination vertices stream through it.
type Blocked struct {
	Blocks []*CSR // Blocks[i] holds edges with source in [i*B, (i+1)*B)
}

// NewBlocked partitions g's edges into numBlocks source-range blocks.
// numBlocks is clamped to [1, NumVertices]. Each per-block CSR spans the
// full vertex ID space so destination/source IDs need no translation.
func NewBlocked(g *CSR, numBlocks int) *Blocked {
	if numBlocks < 1 {
		numBlocks = 1
	}
	if g.NumVertices > 0 && numBlocks > g.NumVertices {
		numBlocks = g.NumVertices
	}
	blockSize := 1
	if g.NumVertices > 0 {
		blockSize = (g.NumVertices + numBlocks - 1) / numBlocks
	}

	// Count edges per (block, dst) in a single pass, then fill. This builds
	// all per-block CSRs in O(|E|) without materializing per-block edge
	// lists.
	counts := make([][]int32, numBlocks)
	for b := range counts {
		counts[b] = make([]int32, g.NumVertices+1)
	}
	for v := 0; v < g.NumVertices; v++ {
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			b := int(g.Indices[p]) / blockSize
			counts[b][v+1]++
		}
	}
	blocks := make([]*CSR, numBlocks)
	cursors := make([][]int32, numBlocks)
	for b := 0; b < numBlocks; b++ {
		indptr := counts[b]
		for v := 0; v < g.NumVertices; v++ {
			indptr[v+1] += indptr[v]
		}
		ne := int(indptr[g.NumVertices])
		blocks[b] = &CSR{
			NumVertices: g.NumVertices,
			NumEdges:    ne,
			Indptr:      indptr,
			Indices:     make([]int32, ne),
			EdgeIDs:     make([]int32, ne),
		}
		cur := make([]int32, g.NumVertices)
		copy(cur, indptr[:g.NumVertices])
		cursors[b] = cur
	}
	for v := 0; v < g.NumVertices; v++ {
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			src := g.Indices[p]
			b := int(src) / blockSize
			q := cursors[b][v]
			blocks[b].Indices[q] = src
			blocks[b].EdgeIDs[q] = g.EdgeIDs[p]
			cursors[b][v]++
		}
	}
	return &Blocked{Blocks: blocks}
}

// TotalEdges returns the edge count summed over blocks; always equals the
// source graph's edge count.
func (b *Blocked) TotalEdges() int {
	total := 0
	for _, blk := range b.Blocks {
		total += blk.NumEdges
	}
	return total
}
