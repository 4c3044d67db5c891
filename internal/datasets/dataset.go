package datasets

import (
	"fmt"
	"math/rand"

	"distgnn/internal/graph"
	"distgnn/internal/tensor"
)

// Spec describes a synthetic dataset: graph shape, community structure,
// and feature/label synthesis parameters.
type Spec struct {
	Name        string
	NumVertices int
	AvgDegree   float64 // directed in-degree average after symmetrization
	FeatDim     int
	NumClasses  int
	// Communities is the number of planted communities. Labels are derived
	// from community membership; community count ≥ class count folds several
	// communities into one class.
	Communities int
	// IntraFrac is the fraction of edges generated inside a community.
	// High values (Proteins) yield low vertex-cut replication factors;
	// low values (Reddit) yield high ones.
	IntraFrac float64
	// Undirected symmetrizes each generated edge into two directed edges,
	// as the paper does for Reddit, OGBN-Products and Proteins.
	Undirected bool
	// FeatureNoise is the std-dev of Gaussian noise added to class
	// centroids when synthesizing features.
	FeatureNoise float64
	// TrainFrac/ValFrac set the split; test gets the remainder.
	TrainFrac, ValFrac float64
	Seed               int64
}

// Dataset is a fully materialized benchmark instance: graph, features,
// labels, and train/val/test vertex sets.
type Dataset struct {
	G          *graph.CSR
	Features   *tensor.Matrix // |V|×FeatDim
	Labels     []int32        // |V|
	NumClasses int
	TrainIdx   []int32
	ValIdx     []int32
	TestIdx    []int32
	Community  []int32 // planted community per vertex
}

// Generate materializes the dataset described by spec. Generation is
// deterministic in spec.Seed.
func Generate(spec Spec) (*Dataset, error) {
	if spec.NumVertices <= 0 {
		return nil, fmt.Errorf("datasets: NumVertices must be positive, got %d", spec.NumVertices)
	}
	if spec.NumClasses <= 0 || spec.FeatDim <= 0 {
		return nil, fmt.Errorf("datasets: FeatDim and NumClasses must be positive")
	}
	if spec.Communities <= 0 {
		spec.Communities = spec.NumClasses
	}
	if spec.Communities > spec.NumVertices {
		spec.Communities = spec.NumVertices
	}
	if spec.TrainFrac <= 0 {
		spec.TrainFrac = 0.6
	}
	if spec.ValFrac <= 0 {
		spec.ValFrac = 0.2
	}
	if spec.TrainFrac+spec.ValFrac >= 1 {
		return nil, fmt.Errorf("datasets: train+val fractions %v+%v leave no test set", spec.TrainFrac, spec.ValFrac)
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	n := spec.NumVertices
	community := assignCommunities(n, spec.Communities)

	// Edge budget: if symmetrizing, each generated undirected edge becomes
	// two directed ones, so halve the draw count.
	target := int(float64(n) * spec.AvgDegree)
	if spec.Undirected {
		target /= 2
	}
	if target < 1 {
		target = 1
	}
	edges := generateEdges(rng, n, target, spec.IntraFrac, community, spec.Communities)
	if spec.Undirected {
		edges = graph.Symmetrize(edges)
	}
	g, err := graph.NewCSR(n, edges)
	if err != nil {
		return nil, err
	}

	labels := make([]int32, n)
	for v, c := range community {
		labels[v] = c % int32(spec.NumClasses)
	}
	feats := synthesizeFeatures(rng, n, spec.FeatDim, spec.NumClasses, labels, spec.FeatureNoise)

	train, val, test := split(rng, n, spec.TrainFrac, spec.ValFrac)
	return &Dataset{
		G:          g,
		Features:   feats,
		Labels:     labels,
		NumClasses: spec.NumClasses,
		TrainIdx:   train,
		ValIdx:     val,
		TestIdx:    test,
		Community:  community,
	}, nil
}

// MustGenerate is Generate that panics on error; for registry specs that are
// valid by construction.
func MustGenerate(spec Spec) *Dataset {
	d, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return d
}

// assignCommunities gives each vertex a community via contiguous equal
// ranges. Contiguity matters: it mimics the locality real datasets have
// after the standard degree/cluster-ordered vertex relabeling.
func assignCommunities(n, k int) []int32 {
	community := make([]int32, n)
	size := (n + k - 1) / k
	for v := 0; v < n; v++ {
		c := v / size
		if c >= k {
			c = k - 1
		}
		community[v] = int32(c)
	}
	return community
}

// generateEdges draws target edges: a fraction intraFrac inside a uniformly
// chosen community (planted clusters) and the rest from a global R-MAT
// (power-law hubs).
func generateEdges(rng *rand.Rand, n, target int, intraFrac float64, community []int32, k int) []graph.Edge {
	edges := make([]graph.Edge, 0, target)
	size := (n + k - 1) / k
	for len(edges) < target {
		if rng.Float64() < intraFrac {
			c := rng.Intn(k)
			lo := c * size
			span := size
			if lo+span > n {
				span = n - lo
			}
			if span < 1 {
				continue
			}
			src, dst := DefaultRMAT.EdgeInRange(rng, lo, span)
			edges = append(edges, graph.Edge{Src: src, Dst: dst})
		} else {
			src, dst := DefaultRMAT.Edge(rng, n)
			edges = append(edges, graph.Edge{Src: src, Dst: dst})
		}
	}
	return edges
}

// synthesizeFeatures draws a random unit-ish centroid per class and emits
// centroid+noise per vertex, giving GraphSAGE a learnable signal.
func synthesizeFeatures(rng *rand.Rand, n, d, classes int, labels []int32, noise float64) *tensor.Matrix {
	if noise <= 0 {
		noise = 1.0
	}
	centroids := tensor.New(classes, d)
	tensor.RandomNormal(centroids, rng, 1.0)
	feats := tensor.New(n, d)
	for v := 0; v < n; v++ {
		c := centroids.Row(int(labels[v]))
		row := feats.Row(v)
		for j := range row {
			row[j] = c[j] + float32(rng.NormFloat64()*noise)
		}
	}
	return feats
}

// split shuffles vertex IDs and cuts train/val/test index sets.
func split(rng *rand.Rand, n int, trainFrac, valFrac float64) (train, val, test []int32) {
	perm := rng.Perm(n)
	nTrain := int(float64(n) * trainFrac)
	nVal := int(float64(n) * valFrac)
	train = make([]int32, 0, nTrain)
	val = make([]int32, 0, nVal)
	test = make([]int32, 0, n-nTrain-nVal)
	for i, v := range perm {
		switch {
		case i < nTrain:
			train = append(train, int32(v))
		case i < nTrain+nVal:
			val = append(val, int32(v))
		default:
			test = append(test, int32(v))
		}
	}
	return train, val, test
}
