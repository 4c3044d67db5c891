package datasets

import (
	"fmt"
	"math/rand"
	"time"

	"distgnn/internal/graph"
)

// stream.go synthesizes timestamped edge streams for the dynamic-graph
// serving path: R-MAT-drawn inserts (same degree skew as the static
// generators, so new edges land where real growth lands — on the hubs)
// arriving under a two-state Markov-modulated Poisson process. The MMPP
// alternates between a quiet state and a burst state, which is what ingest
// traffic actually looks like and what perfbench's serve-rw writer needs
// to stress compaction and cache invalidation under load spikes.

// EdgeEvent is one timestamped edge insert in a synthetic stream.
type EdgeEvent struct {
	At    time.Duration // arrival offset from stream start, strictly increasing
	Edge  graph.Edge
	Burst bool // true if the MMPP was in its burst state at arrival
}

// StreamConfig parameterizes EdgeStream. Zero values take the documented
// defaults; NumVertices and Events are required.
type StreamConfig struct {
	NumVertices int     // vertex ID range of drawn edges (required)
	Events      int     // number of edge events to draw (required)
	MeanRate    float64 // base arrival rate, events/sec (default 1000)
	QuietFactor float64 // quiet-state rate multiplier (default 0.25)
	BurstFactor float64 // burst-state rate multiplier (default 1.75)
	// SojournEvents is the mean number of events between MMPP state flips
	// (geometric sojourn, default 20).
	SojournEvents int
	Seed          int64 // RNG seed; streams are deterministic in it
}

// EdgeStream draws a timestamped edge stream. Deterministic in cfg.Seed:
// the same config always yields the identical stream.
func EdgeStream(cfg StreamConfig) ([]EdgeEvent, error) {
	if cfg.NumVertices < 2 {
		return nil, fmt.Errorf("datasets: stream needs NumVertices ≥ 2, got %d", cfg.NumVertices)
	}
	if cfg.Events < 1 {
		return nil, fmt.Errorf("datasets: stream needs Events ≥ 1, got %d", cfg.Events)
	}
	if cfg.MeanRate == 0 {
		cfg.MeanRate = 1000
	}
	if cfg.MeanRate <= 0 {
		return nil, fmt.Errorf("datasets: stream MeanRate must be positive, got %g", cfg.MeanRate)
	}
	if cfg.QuietFactor == 0 {
		cfg.QuietFactor = 0.25
	}
	if cfg.BurstFactor == 0 {
		cfg.BurstFactor = 1.75
	}
	if cfg.SojournEvents == 0 {
		cfg.SojournEvents = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	flip := 1.0 / float64(cfg.SojournEvents)
	burst := false
	events := make([]EdgeEvent, cfg.Events)
	var at time.Duration
	for i := range events {
		if rng.Float64() < flip {
			burst = !burst
		}
		rate := cfg.MeanRate * cfg.QuietFactor
		if burst {
			rate = cfg.MeanRate * cfg.BurstFactor
		}
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if gap < time.Nanosecond {
			gap = time.Nanosecond // keep timestamps strictly increasing
		}
		at += gap
		src, dst := DefaultRMAT.Edge(rng, cfg.NumVertices)
		events[i] = EdgeEvent{At: at, Edge: graph.Edge{Src: src, Dst: dst}, Burst: burst}
	}
	return events, nil
}

// Batched groups a stream into insert batches of at most maxBatch events,
// cutting a batch whenever the gap to the next event exceeds maxGap — the
// shape an ingest frontend would POST to /update.
func Batched(events []EdgeEvent, maxBatch int, maxGap time.Duration) [][]EdgeEvent {
	if maxBatch < 1 {
		maxBatch = 1
	}
	var out [][]EdgeEvent
	var cur []EdgeEvent
	for _, ev := range events {
		if len(cur) > 0 && (len(cur) >= maxBatch || ev.At-cur[len(cur)-1].At > maxGap) {
			out = append(out, cur)
			cur = nil
		}
		cur = append(cur, ev)
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}
