// Command distgnn-bench regenerates the tables and figures of the DistGNN
// paper's evaluation section on the synthetic calibrated datasets, plus
// the ablation studies beyond them.
//
// Usage:
//
//	distgnn-bench [-scale 0.5] [-epochs N] [-workers N] <experiment>...
//	distgnn-bench -list
//	distgnn-bench all
//	distgnn-bench ablations
//
// Experiments: fig2 table3 fig3 fig4 table4 fig5 fig6 table5 table6
// table7 table8 table9; -list adds the abl-* ablations. Nothing here is a
// perf gate: wall time is gated by the repository benchmark (perfbench/),
// and the counted figures (table3, table4, table6, table7, table8,
// abl-reorder) are pinned byte for byte by internal/bench's golden test.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"distgnn/internal/bench"
	"distgnn/internal/parallel"
)

func main() {
	scale := flag.Float64("scale", 0.5, "dataset scale factor (1.0 = registry base size)")
	epochs := flag.Int("epochs", 0, "override per-experiment epoch/iteration counts")
	workers := flag.Int("workers", 0,
		"kernel worker-pool size, the OMP_NUM_THREADS analogue (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "list available experiments")
	flag.Parse()

	if *workers > 0 {
		parallel.Configure(parallel.Config{Workers: *workers})
	}

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		for _, e := range bench.Ablations() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: distgnn-bench [-scale S] [-epochs N] <%s|all|ablations>...\n",
			strings.Join(bench.IDs(), "|"))
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = bench.IDs()
	}
	if len(args) == 1 && args[0] == "ablations" {
		args = nil
		for _, e := range bench.Ablations() {
			args = append(args, e.ID)
		}
	}
	opt := bench.Options{Scale: *scale, Epochs: *epochs, Out: os.Stdout}
	for _, id := range args {
		e, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "distgnn-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		if err := e.Run(opt); err != nil {
			fmt.Fprintf(os.Stderr, "distgnn-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
