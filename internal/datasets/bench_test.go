package datasets

import (
	"testing"

	"distgnn/internal/graph"
)

// The set-up benchmarks run on serve-read's graph, reddit-sim at scale 0.5
// (2,048 vertices, ~194k directed edges):
//
//	go test -run '^$' -bench 'Generate|NewCSR|Reverse' -cpu 1 ./internal/datasets

func BenchmarkGenerateRedditHalf(b *testing.B) {
	spec, err := SpecFor("reddit-sim", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		MustGenerate(spec)
	}
}

func BenchmarkNewCSRRedditHalf(b *testing.B) {
	g := MustLoad("reddit-sim", 0.5).G
	edges := g.Edges()
	for b.Loop() {
		graph.MustCSR(g.NumVertices, edges)
	}
}

func BenchmarkReverseRedditHalf(b *testing.B) {
	g := MustLoad("reddit-sim", 0.5).G
	for b.Loop() {
		g.Reverse()
	}
}
