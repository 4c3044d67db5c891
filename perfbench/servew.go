package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"distgnn/internal/datasets"
	"distgnn/internal/graph"
	"distgnn/internal/serve"
)

// schedule is the writer's open-loop plan: one /update per edge event,
// due when the event arrives.
type schedule struct {
	edges [][2]int32
	due   []time.Duration
}

// streamBaseRate is datasets.EdgeStream's default base rate (events/s).
// With its default quiet (×0.25) and burst (×1.75) states, each holding
// half the events on average, the time-averaged rate is about 440/s.
const streamBaseRate = 1000

func (c serveConfig) schedule(seed int64, n int, seconds float64) (schedule, error) {
	// Draw more events than the window can hold and keep those inside it.
	events, err := datasets.EdgeStream(datasets.StreamConfig{
		NumVertices: n, Events: int(streamBaseRate*seconds) + 1, Seed: seed,
	})
	if err != nil {
		return schedule{}, err
	}
	window := time.Duration(seconds * float64(time.Second))
	var s schedule
	for _, ev := range events {
		if ev.At > window {
			break
		}
		s.edges = append(s.edges, [2]int32{ev.Edge.Src, ev.Edge.Dst})
		s.due = append(s.due, ev.At)
	}
	return s, nil
}

// writeLoad is what the writer measured.
type writeLoad struct {
	lat latencies
	lag []float64 // ms the writer sent each update after it was due
}

// runWriter POSTs every edge at its due time on one connection. Latency
// is measured from the due time, so a stall also charges the updates
// queued behind it.
func runWriter(e *endpoint, s schedule, start time.Time) writeLoad {
	var w writeLoad
	for i, edge := range s.edges {
		due := start.Add(s.due[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.lag = append(w.lag, ms(time.Since(due)))
		if err := e.update([][2]int32{edge}); err != nil {
			w.lat.fail()
			continue
		}
		w.lat.ok(time.Since(due))
	}
	return w
}

// readWrite runs the readers and the writer together.
func (c serveConfig) readWrite(e *endpoint, seqs [][]int32, s schedule) (readLoad, writeLoad) {
	var w writeLoad
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		w = runWriter(e, s, start)
	}()
	load := c.runReaders(e, seqs)
	wg.Wait()
	return load, w
}

// runServeRW: one closed-loop reader with uniform ids and one open-loop
// writer streaming edge inserts, which drives the overlay, compaction and
// k-hop cache invalidation.
func runServeRW(c serveConfig, o options) *report {
	r := newReport("serve-rw")
	p, ok := c.prepare(r, o)
	if !ok {
		return r
	}
	seqs := c.sequences(o.seed, p.ds.G.NumVertices, o.seconds)
	sched, err := c.schedule(o.seed, p.ds.G.NumVertices, o.seconds)
	if err != nil {
		p.ep.close()
		r.problem(err)
		return r
	}
	burst, err := checkBursty(sched.due)
	r.check(err == nil, "%v", err)
	r.layer["serve.update_scv"] = burst

	settle()
	heap := startHeapPeak()
	load, w := c.readWrite(p.ep, seqs, sched)
	r.layer["runtime.peak_heap_mb"] = heap.stopMB()
	after := p.ep.srv.StatsSnapshot()
	readMetrics(r, load)

	n := len(w.lat.ms)
	r.ops(int64(n), w.lat.failed)
	r.layer["update_p50_ms"], _ = percentile(w.lat.ms, 50)
	if supported(n, 99) {
		r.layer["update_p99_ms"], _ = percentile(w.lat.ms, 99)
	}
	r.layer["serve.update_lag_ms"] = median(w.lag)
	q, v, _ := tail(w.lat.ms)
	st0, st1 := load.before.Stream, after.Stream
	if st0 == nil || st1 == nil {
		p.ep.close()
		r.problem(fmt.Errorf("server reports no stream stats; updates are off"))
		return r
	}
	if du := st1.Updates - st0.Updates; du > 0 {
		r.layer["serve.invalidated_per_update"] = float64(st1.InvalidatedEmbeddings-st0.InvalidatedEmbeddings+
			st1.InvalidatedFeatures-st0.InvalidatedFeatures) / float64(du)
	}
	r.layer["graph.compactions"] = float64(st1.Compactions - st0.Compactions)
	r.note("/update: %d updates (%d failed), schedule SCV %.2f, p50 %.4f ms, p%g %.4f ms (n=%d), writer lag median %.4f ms, %d compactions, %.1f entries invalidated per update",
		n, w.lat.failed, burst, r.layer["update_p50_ms"], q, v, n, r.layer["serve.update_lag_ms"],
		st1.Compactions-st0.Compactions, r.layer["serve.invalidated_per_update"])

	// Replay the same updates into a fresh mutation layer: the insert cost
	// alone, and the final graph a cold server is built on.
	mut := graph.NewMutable(p.ds.G, c.CompactEdges)
	var ins []float64
	for _, e := range sched.edges {
		t0 := time.Now()
		_, err := mut.Insert([]graph.Edge{{Src: e[0], Dst: e[1]}})
		ins = append(ins, ms(time.Since(t0)))
		r.check(err == nil, "replayed insert: %v", err)
	}
	mut.Wait()
	r.layer["graph.insert_ms"] = median(ins)
	final := mut.Snapshot().Rebuild()
	r.check(final.NumEdges == st1.BaseEdges+st1.OverlayEdges,
		"server holds %d+%d edges, replayed stream gives %d", st1.BaseEdges, st1.OverlayEdges, final.NumEdges)

	// After the window: the live server's answers (caches and all) must
	// equal a cold server's on the rebuilt graph.
	cold := *p.ds
	cold.G = final
	cfg := c.server(&cold, nil)
	cfg.EnableUpdates = false
	csrv, err := serve.New(&cold, bytes.NewReader(p.ckpt), cfg)
	if err != nil {
		p.ep.close()
		r.problem(fmt.Errorf("cold server: %w", err))
		return r
	}
	var answers []answer
	for _, v := range rwCheckSample(sched, load.answers) {
		body, err := p.ep.predict(v)
		var logits []float32
		if err == nil {
			logits, err = logitsOf(v, body)
		}
		r.check(err == nil, "post-stream /predict %d: %v", v, err)
		if err == nil {
			answers = append(answers, answer{v, logits})
		}
	}
	p.ep.close()
	c.setupAfter(r, p)
	checkAnswers(r, "live server vs cold server on the rebuilt graph", answers, func(v int32) []float32 {
		out, err := csrv.Engine().Infer([]int32{v})
		if err != nil {
			return nil
		}
		return out.Row(0)
	})
	csrv.Close()
	servedLoss(r, answers, p.ds.Labels)
	if o.trace {
		traceServe(r, c, p, seqs, &sched, load)
	}
	return r
}

// rwCheckSample picks the vertices checked after the stream: the
// destinations of the last updates (their neighbourhoods changed last)
// and the vertices the reader's sampled answers came from.
func rwCheckSample(s schedule, answers []answer) []int32 {
	seen := map[int32]bool{}
	var out []int32
	add := func(v int32) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := len(s.edges) - 1; i >= 0 && len(out) < 32; i-- {
		add(s.edges[i][1])
	}
	for _, a := range answers {
		add(a.v)
	}
	return out
}
