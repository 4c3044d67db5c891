package partition

// owner.go is the vertex-ownership view of a Partitioning that the serving
// layer shards on. Vertex-cut partitioning replicates a vertex into every
// partition holding one of its edges; for state that must live in exactly
// one place — a feature slice, a label, the authority to answer /predict —
// each vertex needs a single canonical owner. The owner is the partition of
// the vertex's root clone (Alg. 4's reduction root) for split vertices and
// its sole partition otherwise, so ownership is a pure function of the
// Partitioning: every process that builds the same partitioning (same
// graph, partitioner, seed) derives the same owner table without any
// coordination.

// Owners returns the owner partition of every source vertex, indexed by
// global vertex ID. Each vertex has exactly one owner in [0, K).
func (pt *Partitioning) Owners() []int32 {
	owners := make([]int32, pt.NumSourceVertices)
	for i := range owners {
		owners[i] = -1
	}
	// Non-split vertices: the unique partition holding them. Filling from
	// the per-part global-ID lists touches each clone once.
	for p, part := range pt.Parts {
		for _, g := range part.GlobalID {
			if owners[g] == -1 {
				owners[g] = int32(p)
			}
		}
	}
	// Split vertices: the root clone's partition overrides whatever part
	// happened to be enumerated first.
	for _, sv := range pt.Splits {
		owners[sv.Global] = sv.Clones[0].Part
	}
	return owners
}

// Halo returns, in ascending global-ID order, the vertices partition p holds
// a clone of but does not own — the replicas whose authoritative state lives
// on another partition and must be fetched over the fabric when p needs it.
func (pt *Partitioning) Halo(p int) []int32 {
	if p < 0 || p >= pt.K {
		return nil
	}
	owners := pt.Owners()
	var halo []int32
	for g := 0; g < pt.NumSourceVertices; g++ {
		if pt.LocalOf[p][g] >= 0 && owners[g] != int32(p) {
			halo = append(halo, int32(g))
		}
	}
	return halo
}
