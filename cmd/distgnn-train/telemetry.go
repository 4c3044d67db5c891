package main

// telemetry.go wires the obs plane into training. -telemetry writes a
// rank-0 JSONL event stream: one "epoch" event per epoch carrying the loss
// both as a decimal and as its exact float64 bit pattern (so two runs can
// be diffed bit for bit), and one final "run" event with accuracy, wall
// time, halo fetch volume, and — when the comm fabric keeps counters —
// payload bytes by traffic plane. -metrics-json dumps the run's metric
// registry as JSON at exit, and -profile captures a CPU or heap profile
// over the whole run.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
)

// telemetry owns the run's event log and metric registry. All methods are
// nil-safe, so non-rank-0 processes and telemetry-free runs pay nothing.
type telemetry struct {
	log  *obs.EventLog
	logF *os.File

	reg         *obs.Registry
	metricsPath string

	epochs    int64
	finalLoss float64
}

// newTelemetry opens the event stream and registry. enabled gates both on
// rank identity (only the speaking rank writes); empty paths disable the
// respective leg.
func newTelemetry(eventPath, metricsPath string, enabled bool) *telemetry {
	if !enabled || (eventPath == "" && metricsPath == "") {
		return nil
	}
	t := &telemetry{metricsPath: metricsPath}
	if eventPath != "" {
		f, err := os.Create(eventPath)
		if err != nil {
			fatal(err)
		}
		t.logF = f
		t.log = obs.NewEventLog(f)
	}
	if metricsPath != "" {
		t.reg = obs.NewRegistry()
		t.reg.CounterFunc("distgnn_train_epochs_total",
			"Training epochs completed.", func() float64 { return float64(t.epochs) })
		t.reg.GaugeFunc("distgnn_train_final_loss",
			"Final epoch training loss.", func() float64 { return t.finalLoss })
	}
	return t
}

// epoch records one finished epoch: the loss lands in the event stream with
// its bit pattern, and the epoch counter advances for the metrics dump.
func (t *telemetry) epoch(n int, loss float64, fields map[string]any) {
	if t == nil {
		return
	}
	t.epochs++
	t.finalLoss = loss
	if t.log == nil {
		return
	}
	obj := map[string]any{
		"epoch": n, "loss": loss, "loss_bits": obs.F64Bits(loss),
	}
	for k, v := range fields {
		obj[k] = v
	}
	t.log.Emit("epoch", obj)
}

// run emits the final summary event, folding in the transport's byte
// counters by plane when the fabric keeps them.
func (t *telemetry) run(fields map[string]any, tr comm.Transport) {
	if t == nil {
		return
	}
	if src, ok := tr.(comm.NetStatsSource); ok && tr != nil {
		ns := src.NetStats()
		fields["net_sent_bytes"] = ns.SentBytes
		fields["net_recv_bytes"] = ns.RecvBytes
		fields["net_collective_bytes"] = ns.CollectiveBytes
		fields["net_p2p_bytes"] = ns.P2PBytes
		if t.reg != nil {
			t.reg.CounterFunc("distgnn_net_sent_bytes_total",
				"Payload bytes sent on the comm fabric.", func() float64 { return float64(ns.SentBytes) })
			t.reg.CounterFunc("distgnn_net_recv_bytes_total",
				"Payload bytes received on the comm fabric.", func() float64 { return float64(ns.RecvBytes) })
			t.reg.CounterFunc(obs.Label("distgnn_net_plane_sent_bytes_total", "plane", "collective"),
				"Sent payload bytes by traffic plane.", func() float64 { return float64(ns.CollectiveBytes) })
			t.reg.CounterFunc(obs.Label("distgnn_net_plane_sent_bytes_total", "plane", "p2p"),
				"Sent payload bytes by traffic plane.", func() float64 { return float64(ns.P2PBytes) })
		}
	}
	t.log.Emit("run", fields)
}

// close flushes both legs: the JSONL stream is closed and the registry
// dumped to -metrics-json.
func (t *telemetry) close() {
	if t == nil {
		return
	}
	if t.logF != nil {
		t.logF.Close()
	}
	if t.reg != nil && t.metricsPath != "" {
		f, err := os.Create(t.metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := t.reg.DumpJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// startProfile begins the requested profile ("cpu" or "mem"; "" disables)
// and returns the function that finishes it. The CPU profile runs for the
// whole training run; the heap profile is one snapshot at stop time.
func startProfile(mode, out string) func() {
	switch mode {
	case "":
		return func() {}
	case "cpu":
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		return func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	case "mem":
		return func() {
			f, err := os.Create(out)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fatal(err)
			}
			f.Close()
		}
	default:
		fatal(fmt.Errorf("unknown -profile %q (cpu or mem)", mode))
		return nil
	}
}
