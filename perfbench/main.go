// Command perfbench is the repository benchmark: four workloads that
// drive the DistGNN layers from outside through their public functions,
// check the outputs, and print end-to-end metrics (untraced) or per-layer
// metrics (traced). See README.md for the workloads, the metric → layer
// table and how to run it.
//
//	go run . --workload fb-reddit --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"distgnn/internal/parallel"
)

// metricDef is one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced metrics. Every workload reports each of them,
// so each is defined for training and serving alike: set-up time, the
// time of the workload's unit of work (the fastest training epoch on
// fb-*, the median /predict latency on serve-*), and the loss the run
// ends at (on serve-*, the cross-entropy of the checked answers the
// server returned).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"final_loss", "nats"},
}

// perLayer are the traced metrics. A layer a workload does not run
// reports 0 there (fb-reddit sends no bytes; the serving workloads run no
// optimizer). "_computed" figures are derived from |V|, |E| and layer
// widths, "train.sim_*" from the paper's cost model, not timed.
var perLayer = []metricDef{
	// Workload figures that apply to some workloads only.
	{"epoch_s", "s"},
	{"time_to_loss_s", "s"},
	{"qps", "1/s"},
	{"p99_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"serve.update_lag_ms", "ms"},
	{"serve.update_scv", "ratio"},
	// Training compute.
	{"model.forward_ms", "ms"},
	{"model.backward_ms", "ms"},
	{"nn.loss_ms", "ms"},
	{"nn.step_ms", "ms"},
	{"spmm.agg_ms", "ms"},
	{"spmm.bytes_per_epoch_computed", "B"},
	{"spmm.ops_per_epoch_computed", "ops"},
	{"tensor.mlp_ms", "ms"},
	{"tensor.flops_per_epoch_computed", "flop"},
	// Distributed training.
	{"partition.libra_ms", "ms"},
	{"partition.replication", "ratio"},
	{"comm.establish_ms", "ms"},
	{"comm.bytes_per_epoch", "B"},
	{"comm.p2p_bytes_per_epoch", "B"},
	{"comm.collective_bytes_per_epoch", "B"},
	{"comm.msgs_per_epoch", "count"},
	{"train.sim_lat_ms", "ms"},
	{"train.sim_rat_ms", "ms"},
	{"train.sim_mlp_ms", "ms"},
	{"train.sim_param_sync_ms", "ms"},
	{"train.sim_exposed_net_ms", "ms"},
	// Serving.
	{"serve.stage.queue_wait_ms", "ms"},
	{"serve.stage.sample_ms", "ms"},
	{"serve.stage.gather_ms", "ms"},
	{"serve.stage.forward_ms", "ms"},
	{"serve.stage.encode_ms", "ms"},
	{"serve.engine_infer_ms", "ms"},
	{"minibatch.sample_ms", "ms"},
	{"minibatch.frontier_mean", "count"},
	{"featstore.gather_ms", "ms"},
	{"serve.coalescer.avg_batch", "count"},
	{"serve.embed_cache.hit_ratio", "ratio"},
	{"featstore.cache.hit_ratio", "ratio"},
	// Mutation plane.
	{"graph.insert_ms", "ms"},
	{"graph.compactions", "count"},
	{"serve.invalidated_per_update", "count"},
	// Go runtime.
	{"runtime.peak_heap_mb", "MB"},
	{"runtime.alloc_mb_per_epoch", "MB"},
	{"runtime.alloc_kb_per_request", "KB"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace_overhead", "ratio"},
}

// report is what one workload run produces.
type report struct {
	workload  string
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string // output-check failures
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
}

// ops records n operations, of which failed failed.
func (r *report) ops(n, failed int64) {
	r.attempted += n
	r.failed += failed
}

// check records one output check as an operation; a failed check is a
// failed operation and makes the run incorrect.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a failure that is not tied to one checked operation.
func (r *report) problem(err error) {
	r.problems = append(r.problems, err.Error())
}

// note prints one human-readable line to standard output.
func (r *report) note(format string, args ...any) {
	fmt.Printf("[%s] %s\n", r.workload, fmt.Sprintf(format, args...))
}

// options are the command-line settings a workload runs under.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloads maps each workload name to its full-size configuration.
var workloads = map[string]func(o options) *report{
	"fb-reddit":  func(o options) *report { return runFBReddit(fbRedditFull, o) },
	"fb-dist":    func(o options) *report { return runFBDist(fbDistFull, o) },
	"serve-read": func(o options) *report { return runServeRead(serveReadFull, o) },
	"serve-rw":   func(o options) *report { return runServeRW(serveRWFull, o) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result assembles the JSON line for one run. Every metric of the mode is
// present; a metric the workload did not produce, or produced as a
// non-finite number, is an error for end-to-end metrics and 0 for
// per-layer ones (the layer did no work).
func (r *report) result(trace bool) resultOut {
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	defs, vals := endToEnd, r.e2e
	if trace {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !trace {
				r.problem(fmt.Errorf("end-to-end metric %s missing or not finite (%v)", d.name, v))
			}
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !hasMetric(defs, name) {
			r.problem(fmt.Errorf("metric %s is not declared", name))
		}
	}
	if out.Attempted < 1 {
		r.problem(fmt.Errorf("no operations attempted"))
	}
	out.Correct = len(r.problems) == 0 && r.failed == 0
	return out
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// printMetrics prints one line per metric with its unit: the end-to-end
// metrics, then every per-layer figure this run measured. Untraced, those
// are the workload-specific figures (epoch_s, qps, p99_ms, update
// latencies, heap, bytes on the wire) that need no span.
func (r *report) printMetrics() {
	for _, d := range endToEnd {
		if v, ok := r.e2e[d.name]; ok {
			r.note("%-34s %14.6g %s", d.name, v, d.unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := r.layer[d.name]; ok {
			r.note("  %-32s %14.6g %s", d.name, v, d.unit)
		}
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 16, "measurement length: the serving loads are sized for it, training repeats for it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	// Everything runs on one P: the kernels, both fb-dist ranks, the
	// server and its clients. On a shared 2-vCPU host the second vCPU comes
	// and goes. With two Ps, a busy process on the other vCPU slowed
	// fb-dist's epoch by 61 % and fb-reddit's by 32 %; with one P, by
	// under 5 %. Parallel scaling is therefore not measured here.
	runtime.GOMAXPROCS(1)
	parallel.Configure(parallel.Config{Workers: 1})

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames()
	}
	var reports []*report
	for _, name := range names {
		run, ok := workloads[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s, all)\n", name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		rep := run(o)
		rep.printMetrics()
		reports = append(reports, rep)
	}

	var res resultOut
	if len(reports) == 1 {
		res = reports[0].result(o.trace)
	} else {
		// "all": one verdict over every workload; the per-workload metrics
		// are the lines printed above.
		res = resultOut{Correct: true, Metrics: map[string]metricOut{}}
		for _, rep := range reports {
			r := rep.result(o.trace)
			res.Correct = res.Correct && r.Correct
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
	}
	for _, rep := range reports {
		for _, p := range rep.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", rep.workload, p)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
