package bench

import (
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
// on both (pinned in internal/train's conformance harness).

const transportBenchRanks = 2

// AblationTransport times cd-r and cd-rs epochs on both comm substrates.
func AblationTransport(opt Options) error {
	ds, err := loadDataset("reddit-sim", opt.scale())
	if err != nil {
		return err
	}
	epochs := opt.epochs(6)

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
		addTransportRow(t, string(algo), "inproc", epochs, time.Since(start), res)

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
		addTransportRow(t, string(algo), "tcp", epochs, wall, tcpRes)
	}
	t.write(opt.Out)
	return nil
}

func addTransportRow(t *table, algo, transport string, epochs int, wall time.Duration, res *train.DistResult) {
	t.add(algo, transport, ms(wall.Seconds()/float64(epochs)), ms(res.AvgEpochSeconds(1, epochs)), pct(res.TestAcc))
}
