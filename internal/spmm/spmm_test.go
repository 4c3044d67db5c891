package spmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// reference is a sequential float64 implementation of the AP used as the
// ground truth for every kernel variant.
func reference(a *Args) *tensor.Matrix {
	g := a.G
	d := a.FO.Cols
	out := tensor.New(g.NumVertices, d)
	acc := make([]float64, d)
	for v := 0; v < g.NumVertices; v++ {
		for j := range acc {
			acc[j] = float64(a.Red.Identity())
		}
		nbr := g.InNeighbors(v)
		ids := g.InEdgeIDs(v)
		for i := range nbr {
			for j := 0; j < d; j++ {
				var x, y float32
				if a.FV != nil {
					x = a.FV.At(int(nbr[i]), j)
				}
				if a.FE != nil {
					y = a.FE.At(int(ids[i]), j)
				}
				acc[j] = float64(a.Red.fold(float32(acc[j]), a.Op.apply(x, y)))
			}
		}
		row := out.Row(v)
		if len(nbr) == 0 {
			continue // zero row, matching finalizeEmpty
		}
		for j := 0; j < d; j++ {
			row[j] = float32(acc[j])
		}
	}
	return out
}

func randomGraph(rng *rand.Rand, n, m int) *graph.CSR {
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	return graph.MustCSR(n, edges)
}

func randomArgs(rng *rand.Rand, g *graph.CSR, d int, op Op, red Reduce) *Args {
	a := &Args{G: g, FO: tensor.New(g.NumVertices, d), Op: op, Red: red}
	if op != OpCopyRHS {
		a.FV = tensor.New(g.NumVertices, d)
		tensor.RandomUniform(a.FV, rng, 0.5, 2.0) // positive: safe for div
	}
	if op != OpCopyLHS {
		a.FE = tensor.New(g.NumEdges, d)
		tensor.RandomUniform(a.FE, rng, 0.5, 2.0)
	}
	return a
}

var allOps = []Op{OpAdd, OpSub, OpMul, OpDiv, OpCopyLHS, OpCopyRHS}
var allReds = []Reduce{ReduceSum, ReduceMax, ReduceMin}

func TestBaselineMatchesReferenceAllOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 40, 300)
	for _, op := range allOps {
		for _, red := range allReds {
			a := randomArgs(rng, g, 9, op, red)
			want := reference(a)
			if err := Baseline(a); err != nil {
				t.Fatalf("%v/%v: %v", op, red, err)
			}
			if d := a.FO.MaxAbsDiff(want); d > 1e-3 {
				t.Fatalf("%v/%v: max diff %v", op, red, d)
			}
		}
	}
}

func TestOptimizedMatchesReferenceAllConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 60, 500)
	// The full Fig. 4 lattice — block count × schedule × loop reordering —
	// plus one small dynamic chunk that forces many work-queue grabs.
	configs := []Options{{NumBlocks: 1, Schedule: ScheduleDynamic, Reordered: true, ChunkSize: 3}}
	for _, nB := range []int{1, 4, 8, 16} {
		for _, sched := range []Schedule{ScheduleStatic, ScheduleDynamic} {
			for _, reordered := range []bool{false, true} {
				configs = append(configs, Options{NumBlocks: nB, Schedule: sched, Reordered: reordered})
			}
		}
	}
	for _, opt := range configs {
		plan := NewPlan(g, opt)
		for _, op := range allOps {
			for _, red := range allReds {
				a := randomArgs(rng, g, 21, op, red) // 21 exercises tile remainder
				want := reference(a)
				if err := plan.Run(a); err != nil {
					t.Fatalf("opt=%+v %v/%v: %v", opt, op, red, err)
				}
				if d := a.FO.MaxAbsDiff(want); d > 1e-3 {
					t.Fatalf("opt=%+v %v/%v: max diff %v", opt, op, red, d)
				}
			}
		}
	}
}

func TestFeatureWidthsIncludingTileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 200)
	plan := NewPlan(g, DefaultOptions(4))
	for _, d := range []int{1, 2, 15, 16, 17, 32, 33, 48} {
		a := randomArgs(rng, g, d, OpCopyLHS, ReduceSum)
		want := reference(a)
		if err := plan.Run(a); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if diff := a.FO.MaxAbsDiff(want); diff > 1e-3 {
			t.Fatalf("d=%d: max diff %v", d, diff)
		}
	}
}

func TestIsolatedVerticesAggregateToZero(t *testing.T) {
	// Vertex 2 has no in-edges; for max/min it must read 0, not ±inf.
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 1}})
	for _, red := range allReds {
		a := &Args{
			G:   g,
			FV:  tensor.FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6}),
			FO:  tensor.New(3, 2),
			Op:  OpCopyLHS,
			Red: red,
		}
		if err := Baseline(a); err != nil {
			t.Fatal(err)
		}
		for _, v := range a.FO.Row(2) {
			if v != 0 {
				t.Fatalf("red=%v: isolated vertex row = %v, want zeros", red, a.FO.Row(2))
			}
		}
		if got := a.FO.Row(1); got[0] != 1 || got[1] != 2 {
			t.Fatalf("red=%v: row 1 = %v, want [1 2]", red, got)
		}
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	g := graph.MustCSR(3, []graph.Edge{{Src: 0, Dst: 1}})
	cases := []struct {
		name string
		args Args
	}{
		{"nil graph", Args{FO: tensor.New(3, 2)}},
		{"nil output", Args{G: g}},
		{"wrong output rows", Args{G: g, FV: tensor.New(3, 2), FO: tensor.New(2, 2)}},
		{"missing FV", Args{G: g, FO: tensor.New(3, 2), Op: OpCopyLHS}},
		{"missing FE", Args{G: g, FV: tensor.New(3, 2), FO: tensor.New(3, 2), Op: OpMul}},
		{"FE wrong rows", Args{G: g, FV: tensor.New(3, 2), FE: tensor.New(5, 2), FO: tensor.New(3, 2), Op: OpMul}},
		{"FV cols mismatch", Args{G: g, FV: tensor.New(3, 4), FO: tensor.New(3, 2), Op: OpCopyLHS}},
	}
	for _, tc := range cases {
		if err := tc.args.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

func TestValidateRejectsAliasedOutput(t *testing.T) {
	g := graph.MustCSR(2, []graph.Edge{{Src: 0, Dst: 1}})
	x := tensor.New(2, 2)
	a := Args{G: g, FV: x, FO: x, Op: OpCopyLHS, Red: ReduceSum}
	if err := a.Validate(); err == nil {
		t.Fatal("expected aliasing error")
	}
}

func TestPlanRejectsForeignGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g1 := randomGraph(rng, 10, 30)
	g2 := randomGraph(rng, 10, 30)
	plan := NewPlan(g1, DefaultOptions(2))
	a := randomArgs(rng, g2, 4, OpCopyLHS, ReduceSum)
	if err := plan.Run(a); err == nil {
		t.Fatal("expected error for mismatched graph")
	}
}

func TestReduceIdentity(t *testing.T) {
	if ReduceSum.Identity() != 0 {
		t.Fatal("sum identity must be 0")
	}
	if ReduceMax.Identity() >= 0 {
		t.Fatal("max identity must be very negative")
	}
	if ReduceMin.Identity() <= 0 {
		t.Fatal("min identity must be very positive")
	}
}

func TestOpStringsAndUnary(t *testing.T) {
	if OpCopyLHS.String() != "copylhs" || !OpCopyLHS.IsUnary() {
		t.Fatal("copylhs metadata wrong")
	}
	if OpAdd.IsUnary() {
		t.Fatal("add is binary")
	}
	if ReduceMax.String() != "max" {
		t.Fatal("reduce string wrong")
	}
}

// Property: aggregation with CopyLHS/Sum is linear in the input features.
func TestAggregationLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 25, 120)
	plan := NewPlan(g, DefaultOptions(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := tensor.New(25, 8)
		y := tensor.New(25, 8)
		tensor.RandomNormal(x, r, 1)
		tensor.RandomNormal(y, r, 1)

		run := func(in *tensor.Matrix) *tensor.Matrix {
			a := &Args{G: g, FV: in, FO: tensor.New(25, 8), Op: OpCopyLHS, Red: ReduceSum}
			if err := plan.Run(a); err != nil {
				t.Fatal(err)
			}
			return a.FO
		}
		sum := x.Clone()
		sum.Add(y)
		lhs := run(sum)
		rhs := run(x)
		rhs.Add(run(y))
		return lhs.MaxAbsDiff(rhs) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: max-aggregation output is bounded by the global feature max.
func TestMaxAggregationBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 30, 200)
	plan := NewPlan(g, DefaultOptions(2))
	a := randomArgs(rng, g, 6, OpCopyLHS, ReduceMax)
	if err := plan.Run(a); err != nil {
		t.Fatal(err)
	}
	var globalMax float32 = -1e30
	for _, v := range a.FV.Data {
		if v > globalMax {
			globalMax = v
		}
	}
	for _, v := range a.FO.Data {
		if v > globalMax {
			t.Fatalf("max aggregate %v exceeds global max %v", v, globalMax)
		}
	}
}

// Property: sum aggregation over the reverse graph preserves the total mass:
// Σ_v out[v] = Σ_u deg_out(u)·x[u], i.e. column sums scale by degrees.
func TestSumAggregationMassConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 20, 100)
	x := tensor.New(20, 4)
	tensor.RandomNormal(x, rng, 1)
	a := &Args{G: g, FV: x, FO: tensor.New(20, 4), Op: OpCopyLHS, Red: ReduceSum}
	if err := Baseline(a); err != nil {
		t.Fatal(err)
	}
	outDeg := make([]float64, 20)
	for _, e := range g.Edges() {
		outDeg[e.Src]++
	}
	for j := 0; j < 4; j++ {
		var lhs, rhs float64
		for v := 0; v < 20; v++ {
			lhs += float64(a.FO.At(v, j))
			rhs += outDeg[v] * float64(x.At(v, j))
		}
		if math.Abs(lhs-rhs) > 1e-2 {
			t.Fatalf("col %d: mass %v vs %v", j, lhs, rhs)
		}
	}
}

func TestEmptyGraphAggregation(t *testing.T) {
	g := graph.MustCSR(5, nil)
	a := &Args{G: g, FV: tensor.New(5, 3), FO: tensor.New(5, 3), Op: OpCopyLHS, Red: ReduceSum}
	if err := Baseline(a); err != nil {
		t.Fatal(err)
	}
	plan := NewPlan(g, DefaultOptions(2))
	if err := plan.Run(a); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleString(t *testing.T) {
	if ScheduleStatic.String() != "static" || ScheduleDynamic.String() != "dynamic" {
		t.Fatal("schedule strings wrong")
	}
}
