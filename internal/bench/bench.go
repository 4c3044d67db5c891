// Package bench regenerates every table and figure of the DistGNN paper's
// evaluation (§6) on the synthetic calibrated datasets. Each experiment is
// a Run* function that prints the same rows/series the paper reports;
// cmd/distgnn-bench exposes them by ID (fig2, table3, …). Absolute numbers
// differ from the paper (different hardware, scaled datasets); the shapes —
// who wins, by what factor, where crossovers fall — are the reproduction
// target. The counted figures (cache reuse, replication, work per hop) are
// deterministic for a seed and pinned byte for byte by the golden test;
// the wall times are reported, never gated (perfbench/ gates wall time).
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"distgnn/internal/datasets"
)

// Options configure an experiment run.
type Options struct {
	// Scale multiplies dataset sizes (1.0 = registry base size).
	Scale float64
	// Epochs overrides the per-experiment default epoch count when > 0.
	Epochs int
	// Out receives the experiment's table; defaults to os.Stdout upstream.
	Out io.Writer
}

func (o *Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.5
	}
	return o.Scale
}

func (o *Options) epochs(def int) int {
	if o.Epochs > 0 {
		return o.Epochs
	}
	return def
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) error
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "Fig. 2: single-socket epoch & AP time, baseline vs optimized", Fig2},
		{"table3", "Table 3: cache reuse vs number of blocks", Table3},
		{"fig3", "Fig. 3: AP time and memory IO vs number of blocks", Fig3},
		{"fig4", "Fig. 4: optimization breakdown (DS, Block, LR)", Fig4},
		{"table4", "Table 4: replication factor vs partition count (Libra)", Table4},
		{"fig5", "Fig. 5: distributed epoch time and speedup (0c/cd-0/cd-r)", Fig5},
		{"fig6", "Fig. 6: local vs remote aggregation scaling", Fig6},
		{"table5", "Table 5: test accuracy of distributed algorithms", Table5},
		{"table6", "Table 6: per-partition memory and split-vertex fraction", Table6},
		{"table7", "Table 7: mini-batch (Dist-DGL) aggregation work per hop", Table7},
		{"table8", "Table 8: full-batch (DistGNN) aggregation work per hop", Table8},
		{"table9", "Table 9: Dist-DGL vs DistGNN training time", Table9},
	}
}

// Lookup finds an experiment by ID among the paper artifacts and the
// ablation studies.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range Ablations() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range Registry() {
		out = append(out, e.ID)
	}
	return out
}

// table is a minimal fixed-width table printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// datasetCache avoids regenerating datasets across experiments in one
// process (the bench CLI runs several back to back).
var (
	dsMu    sync.Mutex
	dsCache = map[string]*datasets.Dataset{}
)

func loadDataset(name string, scale float64) (*datasets.Dataset, error) {
	key := fmt.Sprintf("%s@%g", name, scale)
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	d, err := datasets.Load(name, scale)
	if err != nil {
		return nil, err
	}
	dsCache[key] = d
	return d, nil
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ms(sec float64) string {
	return fmt.Sprintf("%.3f ms", sec*1e3)
}
