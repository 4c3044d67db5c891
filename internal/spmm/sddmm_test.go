package spmm

import (
	"math"
	"math/rand"
	"testing"

	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// identity returns the identity block's selfIdx 0..n-1: a full graph g is
// the block (g.Indptr, g.Indices, identity(g.NumVertices)).
func identity(n int) []int32 {
	self := make([]int32, n)
	for i := range self {
		self[i] = int32(i)
	}
	return self
}

func TestSDDMMElementwiseOps(t *testing.T) {
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 1, Dst: 0}})
	fU := tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	fV := tensor.FromSlice(3, 2, []float32{10, 20, 30, 40, 50, 60})

	out := tensor.New(g.NumEdges, 2)
	if err := SDDMM(g.Indptr, g.Indices, identity(3), fU, fV, SDDMMAdd, out); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices; v++ {
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			u := int(g.Indices[p])
			for j := 0; j < 2; j++ {
				if got, want := out.At(int(p), j), fU.At(u, j)+fV.At(v, j); got != want {
					t.Fatalf("add position %d col %d: got %v want %v", p, j, got, want)
				}
			}
		}
	}
}

func TestSDDMMDot(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	fU := tensor.FromSlice(2, 3, []float32{1, 2, 3, 0, 0, 0})
	fV := tensor.FromSlice(2, 3, []float32{0, 0, 0, 4, 5, 6})
	out := tensor.New(1, 1)
	if err := SDDMM(g.Indptr, g.Indices, identity(2), fU, fV, SDDMMDot, out); err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 1*4+2*5+3*6 {
		t.Fatalf("dot = %v", out.At(0, 0))
	}
}

func TestSDDMMValidation(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	self := identity(2)
	f := tensor.New(2, 3)
	if err := SDDMM(g.Indptr, g.Indices, self, nil, f, SDDMMAdd, tensor.New(1, 3)); err == nil {
		t.Fatal("missing fU must error")
	}
	if err := SDDMM(g.Indptr, g.Indices, self, f, nil, SDDMMAdd, tensor.New(1, 3)); err == nil {
		t.Fatal("missing fV must error")
	}
	if err := SDDMM(g.Indptr, g.Indices, self, f, tensor.New(2, 4), SDDMMAdd, tensor.New(1, 3)); err == nil {
		t.Fatal("width mismatch must error")
	}
	if err := SDDMM(g.Indptr, g.Indices, self, f, f, SDDMMDot, tensor.New(1, 3)); err == nil {
		t.Fatal("dot output must be |E|x1")
	}
	if err := SDDMM(g.Indptr, g.Indices, self, tensor.New(5, 3), f, SDDMMAdd, tensor.New(1, 3)); err == nil {
		t.Fatal("fU row mismatch must error")
	}
	if err := SDDMM(g.Indptr, g.Indices, self[:1], f, f, SDDMMAdd, tensor.New(1, 3)); err == nil {
		t.Fatal("selfIdx length mismatch must error")
	}
	if err := SDDMM(g.Indptr, g.Indices, self, f, f, SDDMMOp(7), tensor.New(1, 3)); err == nil {
		t.Fatal("unknown op must error")
	}
}

// TestAttentionPrimitivesMatchScalarReference pins the block form of the
// three attention primitives bit for bit against scalar loops written
// here, on random bipartite blocks with more sources than destinations, a
// selfIdx that is not the identity, and destinations without edges.
func TestAttentionPrimitivesMatchScalarReference(t *testing.T) {
	bitsEqual := func(what string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s diverges at %d: %v vs %v", what, i, got[i], want[i])
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const numDst, numSrc, d = 60, 150, 7
		_, indptr, indices, selfIdx := randomBipartite(rng, numDst, numSrc, 6, 400)
		for i, s := range rng.Perm(numSrc)[:numDst] {
			selfIdx[i] = int32(s)
		}
		empty := 0
		for i := 0; i < numDst; i++ {
			if indptr[i] == indptr[i+1] {
				empty++
			}
		}
		if empty == 0 {
			t.Fatalf("seed %d: block has no edgeless destination", seed)
		}
		fU, fV := tensor.New(numSrc, d), tensor.New(numSrc, d)
		tensor.RandomNormal(fU, rng, 1)
		tensor.RandomNormal(fV, rng, 1)
		numE := len(indices)

		// SDDMM add and dot: out[p] = fU[indices[p]] ⊗ fV[selfIdx[i]].
		add, dot := tensor.New(numE, d), tensor.New(numE, 1)
		if err := SDDMM(indptr, indices, selfIdx, fU, fV, SDDMMAdd, add); err != nil {
			t.Fatal(err)
		}
		if err := SDDMM(indptr, indices, selfIdx, fU, fV, SDDMMDot, dot); err != nil {
			t.Fatal(err)
		}
		wantAdd, wantDot := make([]float32, numE*d), make([]float32, numE)
		for i := 0; i < numDst; i++ {
			v := fV.Row(int(selfIdx[i]))
			for p := indptr[i]; p < indptr[i+1]; p++ {
				u := fU.Row(int(indices[p]))
				for j := 0; j < d; j++ {
					wantAdd[int(p)*d+j] = u[j] + v[j]
					wantDot[p] += u[j] * v[j]
				}
			}
		}
		bitsEqual("sddmm add", add.Data, wantAdd)
		bitsEqual("sddmm dot", dot.Data, wantDot)

		// EdgeSoftmax over a wide score spread, so some exponents fall
		// below the −80 guard.
		scores := tensor.New(numE, 1)
		tensor.RandomNormal(scores, rng, 40)
		want := append([]float32(nil), scores.Data...)
		for i := 0; i < numDst; i++ {
			e := want[indptr[i]:indptr[i+1]]
			if len(e) == 0 {
				continue
			}
			maxV := e[0]
			for _, v := range e {
				if v > maxV {
					maxV = v
				}
			}
			var sum float64
			for p, v := range e {
				ex := 0.0
				if x := float64(v - maxV); x >= -80 {
					ex = math.Exp(x)
				}
				e[p] = float32(ex)
				sum += ex
			}
			for p := range e {
				e[p] *= float32(1 / sum)
			}
		}
		if err := EdgeSoftmax(indptr, scores); err != nil {
			t.Fatal(err)
		}
		bitsEqual("edge softmax", scores.Data, want)

		// AggregateWeighted, with some zero weights; destinations without
		// edges come out zero. Source row indices[0] is +Inf and reached
		// only through zero weights, so it shows whether they are skipped.
		w := make([]float32, numE)
		for p := range w {
			if rng.Intn(5) > 0 && indices[p] != indices[0] {
				w[p] = float32(rng.NormFloat64())
			}
		}
		for j := range fU.Row(int(indices[0])) {
			fU.Row(int(indices[0]))[j] = float32(math.Inf(1))
		}
		agg := tensor.New(numDst, d)
		tensor.RandomNormal(agg, rng, 1) // overwritten
		if err := AggregateWeighted(indptr, indices, fU, w, agg); err != nil {
			t.Fatal(err)
		}
		wantAgg := make([]float32, numDst*d)
		for i := 0; i < numDst; i++ {
			row := wantAgg[i*d : (i+1)*d]
			for p := indptr[i]; p < indptr[i+1]; p++ {
				if w[p] == 0 {
					continue
				}
				u := fU.Row(int(indices[p]))
				for j := range row {
					row[j] += w[p] * u[j]
				}
			}
		}
		bitsEqual("weighted aggregate", agg.Data, wantAgg)
	}
}

func TestEdgeSoftmaxNormalizesPerDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 50, 400)
	scores := tensor.New(g.NumEdges, 1)
	tensor.RandomNormal(scores, rng, 2)
	if err := EdgeSoftmax(g.Indptr, scores); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices; v++ {
		lo, hi := g.Indptr[v], g.Indptr[v+1]
		if lo == hi {
			continue
		}
		var sum float64
		for _, a := range scores.Data[lo:hi] {
			if a < 0 || a > 1 {
				t.Fatalf("attention weight %v out of [0,1]", a)
			}
			sum += float64(a)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("vertex %d attention sums to %v", v, sum)
		}
	}
}

func TestEdgeSoftmaxStableWithLargeScores(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 1}})
	scores := tensor.FromSlice(2, 1, []float32{500, 501})
	if err := EdgeSoftmax(g.Indptr, scores); err != nil {
		t.Fatal(err)
	}
	for _, v := range scores.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("unstable softmax: %v", scores.Data)
		}
	}
	if scores.Data[1] <= scores.Data[0] {
		t.Fatal("softmax must be monotone")
	}
}

func TestEdgeSoftmaxValidation(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	if err := EdgeSoftmax(g.Indptr, tensor.New(1, 2)); err == nil {
		t.Fatal("non-scalar scores must error")
	}
	if err := EdgeSoftmax(g.Indptr, tensor.New(5, 1)); err == nil {
		t.Fatal("wrong edge count must error")
	}
	if err := EdgeSoftmax(nil, tensor.New(0, 1)); err == nil {
		t.Fatal("empty indptr must error")
	}
}

func TestAggregateWeightedMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 30, 200)
	x := tensor.New(30, 5)
	tensor.RandomNormal(x, rng, 1)
	w := make([]float32, g.NumEdges)
	for i := range w {
		w[i] = rng.Float32()
	}
	out := tensor.New(30, 5)
	if err := AggregateWeighted(g.Indptr, g.Indices, x, w, out); err != nil {
		t.Fatal(err)
	}
	want := tensor.New(30, 5)
	for v := 0; v < 30; v++ {
		row := want.Row(v)
		for p := g.Indptr[v]; p < g.Indptr[v+1]; p++ {
			src := x.Row(int(g.Indices[p]))
			for j := range row {
				row[j] += w[p] * src[j]
			}
		}
	}
	if d := out.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("weighted aggregate diff %v", d)
	}
}

func TestAggregateWeightedUniformEqualsAP(t *testing.T) {
	// With all weights 1, weighted aggregation equals the copylhs/sum AP.
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 40, 300)
	x := tensor.New(40, 8)
	tensor.RandomNormal(x, rng, 1)
	w := make([]float32, g.NumEdges)
	for i := range w {
		w[i] = 1
	}
	weighted := tensor.New(40, 8)
	if err := AggregateWeighted(g.Indptr, g.Indices, x, w, weighted); err != nil {
		t.Fatal(err)
	}
	ap := &Args{G: g, FV: x, FO: tensor.New(40, 8), Op: OpCopyLHS, Red: ReduceSum}
	if err := Baseline(ap); err != nil {
		t.Fatal(err)
	}
	if d := weighted.MaxAbsDiff(ap.FO); d > 1e-4 {
		t.Fatalf("uniform weighted aggregate differs from AP by %v", d)
	}
}

func TestAggregateWeightedValidation(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	x := tensor.New(2, 3)
	if err := AggregateWeighted(g.Indptr, g.Indices, x, []float32{1, 2}, tensor.New(2, 3)); err == nil {
		t.Fatal("wrong weight count must error")
	}
	if err := AggregateWeighted(g.Indptr, g.Indices, x, []float32{1}, tensor.New(2, 4)); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if err := AggregateWeighted(g.Indptr, g.Indices, x, []float32{1}, tensor.New(3, 3)); err == nil {
		t.Fatal("destination count mismatch must error")
	}
}

func TestAggregateMaxArgMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGraph(rng, 40, 250)
	x := tensor.New(40, 6)
	tensor.RandomNormal(x, rng, 1)
	out := tensor.New(40, 6)
	argmax := make([]int32, len(out.Data))
	if err := AggregateMaxArg(g, x, out, argmax); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 40; v++ {
		for j := 0; j < 6; j++ {
			want := x.At(v, j)
			for _, u := range g.InNeighbors(v) {
				if s := x.At(int(u), j); s > want {
					want = s
				}
			}
			if out.At(v, j) != want {
				t.Fatalf("max at (%d,%d): got %v want %v", v, j, out.At(v, j), want)
			}
			winner := argmax[v*6+j]
			if x.At(int(winner), j) != want {
				t.Fatalf("argmax at (%d,%d) points to non-winner", v, j)
			}
		}
	}
}

func TestScatterMaxGradRoutesToWinners(t *testing.T) {
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	x := tensor.FromSlice(3, 2, []float32{
		5, 0, // vertex 0 wins column 0
		0, 5, // vertex 1 wins column 1
		1, 1,
	})
	out := tensor.New(3, 2)
	argmax := make([]int32, 6)
	if err := AggregateMaxArg(g, x, out, argmax); err != nil {
		t.Fatal(err)
	}
	dy := tensor.New(3, 2)
	dy.Row(2)[0] = 10
	dy.Row(2)[1] = 20
	dx := tensor.New(3, 2)
	if err := ScatterMaxGrad(dy, argmax, dx); err != nil {
		t.Fatal(err)
	}
	if dx.At(0, 0) != 10 || dx.At(1, 1) != 20 {
		t.Fatalf("gradients not routed to winners: %v", dx.Data)
	}
	if dx.At(2, 0) != 0 || dx.At(2, 1) != 0 {
		t.Fatalf("losers received gradient: %v", dx.Data)
	}
}

func TestMaxPoolValidation(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	x := tensor.New(2, 3)
	if err := AggregateMaxArg(g, x, tensor.New(2, 4), make([]int32, 8)); err == nil {
		t.Fatal("shape mismatch must error")
	}
	if err := AggregateMaxArg(g, x, tensor.New(2, 3), make([]int32, 2)); err == nil {
		t.Fatal("argmax length mismatch must error")
	}
	if err := ScatterMaxGrad(tensor.New(2, 3), make([]int32, 2), tensor.New(2, 3)); err == nil {
		t.Fatal("argmax length mismatch must error")
	}
}
