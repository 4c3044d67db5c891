package main

// telemetry.go wires the obs plane into training. -telemetry writes a
// rank-0 JSONL event stream: one "epoch" event per epoch carrying the loss
// both as a decimal and as its exact float64 bit pattern (so two runs can
// be diffed bit for bit), and one final "run" event with accuracy, wall
// time, halo fetch volume, and — when the comm fabric keeps counters —
// payload bytes by traffic plane. -profile captures a CPU or heap profile
// over the whole run.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"distgnn/internal/comm"
	"distgnn/internal/obs"
)

// telemetry owns the run's event log. All methods are nil-safe, so
// non-rank-0 processes and telemetry-free runs pay nothing.
type telemetry struct {
	log  *obs.EventLog
	logF *os.File
}

// newTelemetry opens the event stream. enabled gates it on rank identity
// (only the speaking rank writes); an empty path disables it.
func newTelemetry(eventPath string, enabled bool) *telemetry {
	if !enabled || eventPath == "" {
		return nil
	}
	f, err := os.Create(eventPath)
	if err != nil {
		fatal(err)
	}
	return &telemetry{logF: f, log: obs.NewEventLog(f)}
}

// epoch records one finished epoch in the event stream, the loss with its
// bit pattern.
func (t *telemetry) epoch(n int, loss float64, fields map[string]any) {
	if t == nil {
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
	}
	t.log.Emit("run", fields)
}

// close closes the JSONL stream.
func (t *telemetry) close() {
	if t == nil {
		return
	}
	t.logF.Close()
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
