package datasets

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "t", NumVertices: 500, AvgDegree: 10, FeatDim: 8, NumClasses: 4, Seed: 42}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if a.G.NumEdges != b.G.NumEdges {
		t.Fatalf("edge counts differ: %d vs %d", a.G.NumEdges, b.G.NumEdges)
	}
	if a.Features.MaxAbsDiff(b.Features) != 0 {
		t.Fatal("features differ across identical seeds")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
}

func TestGenerateShapes(t *testing.T) {
	d := MustGenerate(Spec{Name: "t", NumVertices: 1000, AvgDegree: 12, FeatDim: 16, NumClasses: 7, Seed: 1})
	if d.G.NumVertices != 1000 {
		t.Fatalf("vertices = %d", d.G.NumVertices)
	}
	if d.Features.Rows != 1000 || d.Features.Cols != 16 {
		t.Fatalf("features %dx%d", d.Features.Rows, d.Features.Cols)
	}
	if len(d.Labels) != 1000 {
		t.Fatalf("labels len %d", len(d.Labels))
	}
	for v, l := range d.Labels {
		if l < 0 || int(l) >= d.NumClasses {
			t.Fatalf("label %d of vertex %d out of range", l, v)
		}
	}
	got := d.G.AvgDegree()
	if math.Abs(got-12) > 2.5 {
		t.Fatalf("avg degree %v, want ≈12", got)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	d := MustGenerate(Spec{Name: "t", NumVertices: 800, AvgDegree: 5, FeatDim: 4, NumClasses: 3,
		TrainFrac: 0.5, ValFrac: 0.25, Seed: 9})
	seen := make([]int, 800)
	for _, idx := range [][]int32{d.TrainIdx, d.ValIdx, d.TestIdx} {
		for _, v := range idx {
			seen[v]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("vertex %d appears %d times across splits", v, c)
		}
	}
	if len(d.TrainIdx) != 400 || len(d.ValIdx) != 200 || len(d.TestIdx) != 200 {
		t.Fatalf("split sizes %d/%d/%d", len(d.TrainIdx), len(d.ValIdx), len(d.TestIdx))
	}
}

func TestUndirectedSymmetry(t *testing.T) {
	d := MustGenerate(Spec{Name: "t", NumVertices: 300, AvgDegree: 8, FeatDim: 4, NumClasses: 3,
		Undirected: true, Seed: 5})
	// Every edge u→v must have a partner v→u (self-loops excluded).
	type pair struct{ a, b int32 }
	count := map[pair]int{}
	for _, e := range d.G.Edges() {
		count[pair{e.Src, e.Dst}]++
	}
	for p, c := range count {
		if p.a == p.b {
			continue
		}
		if count[pair{p.b, p.a}] != c {
			t.Fatalf("edge %v count %d has reverse count %d", p, c, count[pair{p.b, p.a}])
		}
	}
}

func TestFeaturesCarryClassSignal(t *testing.T) {
	// Features are class centroid + noise, so same-class vertices must be
	// closer on average than different-class vertices.
	d := MustGenerate(Spec{Name: "t", NumVertices: 600, AvgDegree: 5, FeatDim: 16, NumClasses: 4,
		FeatureNoise: 0.5, Seed: 13})
	rng := rand.New(rand.NewSource(99))
	var sameDist, diffDist float64
	var sameN, diffN int
	for trial := 0; trial < 4000; trial++ {
		a, b := rng.Intn(600), rng.Intn(600)
		if a == b {
			continue
		}
		var dist float64
		fa, fb := d.Features.Row(a), d.Features.Row(b)
		for j := range fa {
			diff := float64(fa[j] - fb[j])
			dist += diff * diff
		}
		if d.Labels[a] == d.Labels[b] {
			sameDist += dist
			sameN++
		} else {
			diffDist += dist
			diffN++
		}
	}
	if sameN == 0 || diffN == 0 {
		t.Fatal("degenerate sampling")
	}
	if sameDist/float64(sameN) >= diffDist/float64(diffN) {
		t.Fatalf("same-class distance %v not below diff-class %v",
			sameDist/float64(sameN), diffDist/float64(diffN))
	}
}

func TestCommunityStructureRaisesIntraEdges(t *testing.T) {
	lo := MustGenerate(Spec{Name: "lo", NumVertices: 2000, AvgDegree: 10, FeatDim: 4, NumClasses: 8,
		Communities: 16, IntraFrac: 0.05, Seed: 3})
	hi := MustGenerate(Spec{Name: "hi", NumVertices: 2000, AvgDegree: 10, FeatDim: 4, NumClasses: 8,
		Communities: 16, IntraFrac: 0.9, Seed: 3})
	intraFrac := func(d *Dataset) float64 {
		intra := 0
		for _, e := range d.G.Edges() {
			if d.Community[e.Src] == d.Community[e.Dst] {
				intra++
			}
		}
		return float64(intra) / float64(d.G.NumEdges)
	}
	fLo, fHi := intraFrac(lo), intraFrac(hi)
	if fHi <= fLo+0.3 {
		t.Fatalf("intra-community fraction: lo=%v hi=%v — planted structure missing", fLo, fHi)
	}
}

func TestRMATPowerLawSkew(t *testing.T) {
	// R-MAT must produce hubs: max degree far above average.
	d := MustGenerate(Spec{Name: "t", NumVertices: 4096, AvgDegree: 16, FeatDim: 2, NumClasses: 2,
		IntraFrac: 0, Seed: 77})
	avg := d.G.AvgDegree()
	if float64(d.G.MaxDegree()) < 5*avg {
		t.Fatalf("max degree %d vs avg %v — degree distribution not skewed", d.G.MaxDegree(), avg)
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{NumVertices: 0, FeatDim: 4, NumClasses: 2},
		{NumVertices: 10, FeatDim: 0, NumClasses: 2},
		{NumVertices: 10, FeatDim: 4, NumClasses: 0},
		{NumVertices: 10, FeatDim: 4, NumClasses: 2, TrainFrac: 0.8, ValFrac: 0.3},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d: expected error", i)
		}
	}
}

func TestRegistryLoadsAllDatasets(t *testing.T) {
	for _, name := range Names() {
		d, err := Load(name, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.G.NumVertices == 0 || d.G.NumEdges == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
}

// TestRegistryUnknownName pins Load's error contract: an unknown dataset
// name must fail (not panic) with a message that names the offender and
// lists every registered dataset, so a CLI typo is self-diagnosing.
func TestRegistryUnknownName(t *testing.T) {
	_, err := Load("no-such-dataset", 1)
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "no-such-dataset") {
		t.Fatalf("error does not name the unknown dataset: %v", err)
	}
	for _, name := range Names() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error does not list registered dataset %q: %v", name, err)
		}
	}
	// SpecFor is the same path the CLIs use for usage strings.
	if _, err := SpecFor("no-such-dataset", 1); err == nil {
		t.Fatal("SpecFor must reject unknown names too")
	}
}

func TestRegistryScale(t *testing.T) {
	small := MustLoad("am-sim", 0.25)
	big := MustLoad("am-sim", 0.5)
	if big.G.NumVertices != 2*small.G.NumVertices {
		t.Fatalf("scaling broken: %d vs %d", small.G.NumVertices, big.G.NumVertices)
	}
}

func TestRegistryShapeOrdering(t *testing.T) {
	// Reddit-sim must be the densest and highest-degree dataset; the
	// replication-factor and cache-reuse experiments depend on this.
	reddit := MustLoad("reddit-sim", 0.25)
	products := MustLoad("ogbn-products-sim", 0.25)
	if reddit.G.AvgDegree() <= products.G.AvgDegree() {
		t.Fatalf("reddit-sim degree %v must exceed products-sim %v",
			reddit.G.AvgDegree(), products.G.AvgDegree())
	}
	if reddit.G.Density() <= products.G.Density() {
		t.Fatalf("reddit-sim density %v must exceed products-sim %v",
			reddit.G.Density(), products.G.Density())
	}
}

func TestRMATEdgeInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		u, v := DefaultRMAT.EdgeInRange(rng, 100, 37)
		if u < 100 || u >= 137 || v < 100 || v >= 137 {
			t.Fatalf("edge (%d,%d) outside [100,137)", u, v)
		}
	}
}

func TestRMATNonPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 1000, 1023, 1025} {
		for i := 0; i < 500; i++ {
			u, v := DefaultRMAT.Edge(rng, n)
			if int(u) >= n || int(v) >= n || u < 0 || v < 0 {
				t.Fatalf("n=%d: edge (%d,%d) out of range", n, u, v)
			}
		}
	}
}
