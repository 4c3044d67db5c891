package bench

import (
	"encoding/json"
	"time"

	"distgnn/internal/comm"
	"distgnn/internal/train"
)

// transport.go is the abl-transport ablation: the same cd-r / cd-rs run on
// the in-process fabric (every rank a goroutine) and over loopback TCP
// (every rank a real socket endpoint, messages framed and serialized),
// comparing real wall-clock epoch time. The delta is the transport tax —
// serialization, syscalls, kernel round-trips — that multi-process
// deployment pays for process isolation; the training math is bit-identical
// on both (pinned in internal/train's conformance harness). With
// Options.JSON set, the rows are also emitted as one machine-readable
// report — CI uploads it as BENCH_transport.json so future PRs can diff
// the perf trajectory.

const transportBenchRanks = 2

// TransportBenchRow is one (algorithm, transport) measurement.
type TransportBenchRow struct {
	Algo             string  `json:"algo"`
	Transport        string  `json:"transport"`
	Ranks            int     `json:"ranks"`
	Epochs           int     `json:"epochs"`
	WallEpochSeconds float64 `json:"wall_epoch_seconds"`
	SimEpochSeconds  float64 `json:"sim_epoch_seconds"`
	FinalLoss        float64 `json:"final_loss"`
	TestAcc          float64 `json:"test_acc"`
}

// TransportBenchReport is the BENCH_transport.json schema.
type TransportBenchReport struct {
	Experiment string              `json:"experiment"`
	Scale      float64             `json:"scale"`
	Results    []TransportBenchRow `json:"results"`
}

// AblationTransport times cd-r and cd-rs epochs on both comm substrates.
func AblationTransport(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(6)
	report := TransportBenchReport{Experiment: "abl-transport", Scale: opt.scale()}

	baseCfg := func(algo train.Algorithm) train.DistConfig {
		return train.DistConfig{
			Model:         fig5ModelFor("reddit-sim"),
			NumPartitions: transportBenchRanks, Algo: algo, Delay: 2,
			Epochs: epochs, LR: 0.02, UseAdam: true, Seed: 1,
		}
	}

	t := &table{header: []string{"algo", "transport", "wall/epoch", "sim/epoch", "test acc"}}
	for _, algo := range []train.Algorithm{train.AlgoCDR, train.AlgoCDRS} {
		// In-process: every rank a goroutine over its own fabric endpoint.
		start := time.Now()
		res, err := train.Distributed(ds, baseCfg(algo))
		if err != nil {
			return err
		}
		addTransportRow(t, &report, string(algo), "inproc", epochs, time.Since(start), res)

		// Loopback TCP: every rank its own endpoint, frames on real sockets.
		eps, err := comm.NewLoopbackTCP(transportBenchRanks, time.Minute)
		if err != nil {
			return err
		}
		start = time.Now()
		tcpRes, err := train.DistributedFleet(ds, baseCfg(algo), eps)
		wall := time.Since(start)
		for _, ep := range eps {
			ep.Close()
		}
		if err != nil {
			return err
		}
		addTransportRow(t, &report, string(algo), "tcp", epochs, wall, tcpRes)
	}
	t.write(opt.Out)

	if opt.JSON != nil {
		enc := json.NewEncoder(opt.JSON)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	return nil
}

func addTransportRow(t *table, report *TransportBenchReport, algo, transport string,
	epochs int, wall time.Duration, res *train.DistResult) {
	row := TransportBenchRow{
		Algo: algo, Transport: transport, Ranks: transportBenchRanks, Epochs: epochs,
		WallEpochSeconds: wall.Seconds() / float64(epochs),
		SimEpochSeconds:  res.AvgEpochSeconds(1, epochs),
		FinalLoss:        res.Epochs[epochs-1].Loss,
		TestAcc:          res.TestAcc,
	}
	report.Results = append(report.Results, row)
	t.add(algo, transport, ms(row.WallEpochSeconds), ms(row.SimEpochSeconds), pct(row.TestAcc))
}
