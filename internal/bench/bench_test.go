package bench

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

// tinyOptions keeps smoke runs fast: smallest datasets, minimal epochs.
func tinyOptions(buf io.Writer) Options {
	return Options{Scale: 0.1, Epochs: 2, Out: buf}
}

// tinyRuns memoizes tinyRun, so an experiment both the smoke test and the
// golden run at the same options trains once per test binary.
var (
	tinyMu   sync.Mutex
	tinyRuns = map[string]tinyResult{}
)

type tinyResult struct {
	out string
	err error
}

// tinyRun returns e's output at tinyOptions, running it on first use.
func tinyRun(e Experiment) (string, error) {
	tinyMu.Lock()
	defer tinyMu.Unlock()
	r, ok := tinyRuns[e.ID]
	if !ok {
		var buf bytes.Buffer
		r.err = e.Run(tinyOptions(&buf))
		r.out = buf.String()
		tinyRuns[e.ID] = r
	}
	return r.out, r.err
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	ids := IDs()
	want := []string{"fig2", "table3", "fig3", "fig4", "table4", "fig5",
		"fig6", "table5", "table6", "table7", "table8", "table9"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i, w := range want {
		if ids[i] != w {
			t.Fatalf("registry order: got %v", ids)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig2"); !ok {
		t.Fatal("fig2 must be registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

// Every experiment must run end to end at tiny scale and produce a table
// with a header and at least one data row.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := tinyRun(e)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) < 3 {
				t.Fatalf("%s: output too short:\n%s", e.ID, out)
			}
		})
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyOptions(&buf)); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) < 3 {
				t.Fatalf("%s: output too short:\n%s", e.ID, buf.String())
			}
		})
	}
}

func TestAblationLookup(t *testing.T) {
	for _, e := range Ablations() {
		if _, ok := Lookup(e.ID); !ok {
			t.Fatalf("ablation %s not resolvable", e.ID)
		}
	}
}

func TestTablePrinterAlignment(t *testing.T) {
	var buf bytes.Buffer
	tb := &table{header: []string{"a", "bbbb"}}
	tb.add("xxxxx", "y")
	tb.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %v", lines)
	}
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Fatalf("header not padded to widest cell: %q", lines[0])
	}
	if !strings.Contains(lines[1], "-----") {
		t.Fatalf("missing separator: %q", lines[1])
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.scale() != 0.5 {
		t.Fatalf("default scale %v", o.scale())
	}
	if o.epochs(7) != 7 {
		t.Fatal("default epochs must use fallback")
	}
	o.Epochs = 3
	if o.epochs(7) != 3 {
		t.Fatal("explicit epochs must win")
	}
}

func TestDatasetCacheReturnsSameInstance(t *testing.T) {
	a, err := loadDataset("am-sim", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadDataset("am-sim", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset cache must return the cached instance")
	}
	c, err := loadDataset("am-sim", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different scales must not share instances")
	}
}

func TestFormattingHelpers(t *testing.T) {
	if f2(1.234) != "1.23" || f3(1.2345) != "1.234" {
		t.Fatal("float formatting wrong")
	}
	if pct(0.5) != "50.0%" {
		t.Fatalf("pct: %s", pct(0.5))
	}
	if ms(0.001) != "1.000 ms" {
		t.Fatalf("ms: %s", ms(0.001))
	}
}
