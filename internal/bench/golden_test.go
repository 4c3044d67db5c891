package bench

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// countedFigures print only counted quantities — modelled cache reuse and
// IO, Libra replication and balance, partition memory, sampled and
// full-batch work per hop, Fig. 5/6's simulated cluster times under the
// fixed compute and network models, and distributed mini-batch steps, work
// and accuracy — never a wall time, so a seed fixes every byte.
var countedFigures = []string{"table3", "table4", "fig5", "fig6", "table6", "table7", "table8", "abl-reorder", "abl-mb-dist"}

// TestCountedFiguresGolden pins the counted paper figures byte for byte.
// The golden file is the CLI's stdout; after a deliberate change to one of
// these figures, regenerate it from the repository root with
//
//	go run ./cmd/distgnn-bench -scale 0.1 -epochs 2 table3 table4 fig5 fig6 table6 table7 table8 abl-reorder abl-mb-dist > internal/bench/testdata/figures.golden
//
// and review the diff like any other change.
func TestCountedFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range countedFigures {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		out, err := tinyRun(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(&got, "== %s: %s ==\n%s\n", e.ID, e.Title, out)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("figures differ from testdata/figures.golden from line %d:\n got:\n%s", i+1, got.String())
		}
	}
}
