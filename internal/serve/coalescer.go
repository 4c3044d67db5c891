package serve

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"time"

	"distgnn/internal/obs"
	"distgnn/internal/tensor"
)

// Coalescer merges concurrent single-vertex queries into micro-batches and
// runs one inference per batch for the deduplicated vertex set; every
// waiter gets its row. Batching is work-conserving: a request that finds no
// batch running starts one at once, taking along whatever is already
// queued; requests that arrive while a batch runs fill the next batch until
// it reaches maxBatch, maxWait elapses, or a running batch finishes. Batches
// execute on their own goroutines, so a slow batch never blocks formation
// of the next one.
//
// Shutdown contract: Close drains — every Submit that was admitted before
// or concurrently with Close receives either its result (if its batch was
// already running) or ErrCoalescerClosed; none blocks forever. Close
// returns only after the dispatcher has failed all pending requests, and
// Submits that arrive after Close fail immediately with ErrCoalescerClosed.
//
// Admission contract: when maxPending > 0, Submit sheds load with
// ErrSaturated as soon as the number of admitted-but-unfinished requests
// would exceed the bound — the signal the HTTP layer turns into
// 429 + Retry-After so a saturated replica degrades loudly instead of
// queueing without bound.
type Coalescer struct {
	infer      func([]int32, *obs.TraceCtx) (*tensor.Matrix, error)
	maxBatch   int
	maxWait    time.Duration
	maxPending int64 // ≤ 0: unbounded

	reqs    chan *pendingReq
	quit    chan struct{}
	drained chan struct{} // closed once dispatch has failed all pending reqs
	// finished carries one signal per completed batch to the dispatcher's
	// in-flight count. It is unbuffered and run also selects on drained,
	// so a batch that completes after the dispatcher exits never blocks.
	finished chan struct{}

	// enqueuing counts Submits inside the enqueue select; the post-Close
	// drain loop spins until it reaches zero so a request racing Close can
	// never be stranded between "sent to reqs" and "received by nobody".
	enqueuing atomic.Int64

	requests   atomic.Int64
	batches    atomic.Int64
	batchedReq atomic.Int64 // requests that shared a batch with ≥1 other
	dedupSaved atomic.Int64 // duplicate vertices removed before inference
	maxSeen    atomic.Int64
	pending    atomic.Int64 // admitted, not yet answered
	shed       atomic.Int64 // rejected with ErrSaturated
}

// ErrCoalescerClosed is returned by Submit for requests admitted or arriving
// while the coalescer shuts down.
var ErrCoalescerClosed = errors.New("serve: coalescer closed")

// ErrSaturated is returned by Submit when the pending-request bound is hit.
// The HTTP layer maps it to 429 Too Many Requests with Retry-After.
var ErrSaturated = errors.New("serve: coalescer saturated, retry later")

type pendingReq struct {
	vertex int32
	done   chan inferResult
	// tc is the submitter's trace context (nil untraced); enq the admission
	// time the queue_wait span is measured from.
	tc  *obs.TraceCtx
	enq time.Time
}

type inferResult struct {
	row []float32
	err error
}

// CoalescerStats is the /stats snapshot of batching behaviour.
type CoalescerStats struct {
	Requests        int64   `json:"requests"`
	Batches         int64   `json:"batches"`
	BatchedRequests int64   `json:"batched_requests"`
	DedupSaved      int64   `json:"dedup_saved"`
	MaxBatch        int64   `json:"max_batch_observed"`
	AvgBatch        float64 `json:"avg_batch"`
	// Pending is the instantaneous admitted-but-unanswered depth;
	// MaxPending the admission bound (0 = unbounded); Shed the requests
	// rejected with ErrSaturated (served as 429s upstream).
	Pending    int64 `json:"pending"`
	MaxPending int64 `json:"max_pending"`
	Shed       int64 `json:"shed"`
}

// NewCoalescer starts a coalescer over the given inference function.
// maxBatch ≤ 1 disables merging — every request is its own batch (the
// batch-of-1 reference arm of the serving benchmark). maxWait is the
// longest a request waits for batch mates while a batch is in flight; a
// request that finds the engine idle never waits. maxWait ≤ 0 defaults to
// 2ms. maxPending > 0 bounds the admitted-request depth (ErrSaturated
// beyond it); ≤ 0 admits everything.
func NewCoalescer(infer func([]int32, *obs.TraceCtx) (*tensor.Matrix, error), maxBatch int, maxWait time.Duration, maxPending int) *Coalescer {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxWait <= 0 {
		maxWait = 2 * time.Millisecond
	}
	c := &Coalescer{
		infer:      infer,
		maxBatch:   maxBatch,
		maxWait:    maxWait,
		maxPending: int64(maxPending),
		reqs:       make(chan *pendingReq),
		quit:       make(chan struct{}),
		drained:    make(chan struct{}),
		finished:   make(chan struct{}),
	}
	go c.dispatch()
	return c
}

// Submit enqueues one vertex query and blocks until its result row (a
// private copy) is ready, the context is canceled, the admission bound
// rejects it (ErrSaturated), or the coalescer closes (ErrCoalescerClosed).
func (c *Coalescer) Submit(ctx context.Context, vertex int32) ([]float32, error) {
	return c.SubmitTraced(ctx, vertex, nil)
}

// SubmitTraced is Submit with request tracing: a non-nil tc receives a
// queue_wait span (admission → batch start) plus the batch's inference-stage
// spans, re-based onto the request's clock. The result bits are identical.
func (c *Coalescer) SubmitTraced(ctx context.Context, vertex int32, tc *obs.TraceCtx) ([]float32, error) {
	if n := c.pending.Add(1); c.maxPending > 0 && n > c.maxPending {
		c.pending.Add(-1)
		c.shed.Add(1)
		return nil, ErrSaturated
	}
	defer c.pending.Add(-1)

	p := &pendingReq{vertex: vertex, done: make(chan inferResult, 1), tc: tc}
	if tc != nil {
		p.enq = time.Now()
	}
	c.enqueuing.Add(1)
	select {
	case c.reqs <- p:
		c.enqueuing.Add(-1)
	case <-ctx.Done():
		c.enqueuing.Add(-1)
		return nil, ctx.Err()
	case <-c.quit:
		c.enqueuing.Add(-1)
		return nil, ErrCoalescerClosed
	}
	select {
	case r := <-p.done:
		return r.row, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.quit:
		// The request is enqueued, so the shutdown drain guarantees a done
		// send; prefer a result that already arrived over the close error.
		select {
		case r := <-p.done:
			return r.row, r.err
		default:
			return nil, ErrCoalescerClosed
		}
	}
}

// Close stops the dispatcher and drains: every pending request receives
// ErrCoalescerClosed (or its result, for batches already inferring); later
// Submits fail immediately. Close returns after the drain completes and is
// safe to call from any goroutine, but only once.
func (c *Coalescer) Close() {
	close(c.quit)
	<-c.drained
}

// Stats snapshots the batching counters.
func (c *Coalescer) Stats() CoalescerStats {
	st := CoalescerStats{
		Requests:        c.requests.Load(),
		Batches:         c.batches.Load(),
		BatchedRequests: c.batchedReq.Load(),
		DedupSaved:      c.dedupSaved.Load(),
		MaxBatch:        c.maxSeen.Load(),
		Pending:         c.pending.Load(),
		MaxPending:      c.maxPending,
		Shed:            c.shed.Load(),
	}
	if st.Batches > 0 {
		st.AvgBatch = float64(st.Requests) / float64(st.Batches)
	}
	return st
}

// dispatch forms batches, work-conserving: it counts the batches in
// flight, and when none is running the first request starts a batch at
// once together with whatever is already queued (up to maxBatch) — an idle
// engine never sleeps on a timer. While a batch runs, the next one keeps
// filling until maxBatch, maxWait, or a running batch finishing, whichever
// comes first. On quit it drains before exiting so no admitted request is
// stranded.
func (c *Coalescer) dispatch() {
	defer close(c.drained)
	inflight := 0
	for {
		var first *pendingReq
		select {
		case first = <-c.reqs:
		case <-c.finished:
			inflight--
			continue
		case <-c.quit:
			c.drainPending()
			return
		}
		batch := []*pendingReq{first}
		if inflight == 0 {
			batch = c.takeQueued(batch)
		} else if c.maxBatch > 1 {
			timer := time.NewTimer(c.maxWait)
		fill:
			for len(batch) < c.maxBatch {
				select {
				case p := <-c.reqs:
					batch = append(batch, p)
				case <-c.finished:
					inflight--
					break fill
				case <-timer.C:
					break fill
				case <-c.quit:
					timer.Stop()
					c.fail(batch, ErrCoalescerClosed)
					c.drainPending()
					return
				}
			}
			timer.Stop()
		}
		inflight++
		go c.run(batch)
	}
}

// takeQueued appends the requests whose Submits are already blocked on the
// queue, up to maxBatch, without waiting for more.
func (c *Coalescer) takeQueued(batch []*pendingReq) []*pendingReq {
	for len(batch) < c.maxBatch {
		select {
		case p := <-c.reqs:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// drainPending runs after quit: requests that won the enqueue select
// concurrently with Close are received here and failed with the closed
// error. It spins until no Submit is still inside the enqueue select —
// after that, any new Submit observes quit and fails on its own.
func (c *Coalescer) drainPending() {
	for {
		select {
		case p := <-c.reqs:
			p.done <- inferResult{err: ErrCoalescerClosed}
		default:
			if c.enqueuing.Load() == 0 {
				return
			}
			runtime.Gosched()
		}
	}
}

// run deduplicates the batch's vertices (first occurrence wins the slot),
// executes one inference, fans the rows out to every waiter, and then
// reports completion to the dispatcher.
func (c *Coalescer) run(batch []*pendingReq) {
	defer func() {
		select {
		case c.finished <- struct{}{}:
		case <-c.drained:
		}
	}()
	order := make([]int32, 0, len(batch))
	slot := make(map[int32]int, len(batch))
	for _, p := range batch {
		if _, ok := slot[p.vertex]; !ok {
			slot[p.vertex] = len(order)
			order = append(order, p.vertex)
		}
	}
	c.requests.Add(int64(len(batch)))
	c.batches.Add(1)
	c.dedupSaved.Add(int64(len(batch) - len(order)))
	if len(batch) > 1 {
		c.batchedReq.Add(int64(len(batch)))
	}
	for {
		cur := c.maxSeen.Load()
		if int64(len(batch)) <= cur || c.maxSeen.CompareAndSwap(cur, int64(len(batch))) {
			break
		}
	}

	// One batch-level trace context when any member is traced; its spans are
	// merged into every traced member after the shared inference, re-based
	// onto that member's clock. The batch adopts the first traced member's
	// ID, so downstream halo fetches attribute to that representative
	// request (exact for batch-of-1, the tail-request case).
	var bt *obs.TraceCtx
	for _, p := range batch {
		if p.tc == nil {
			continue
		}
		if bt == nil || (bt.ID() == 0 && p.tc.ID() != 0) {
			bt = obs.NewTraceCtx(p.tc.ID())
		}
		if bt.ID() != 0 {
			break
		}
	}
	out, err := c.infer(order, bt)
	if err != nil {
		c.fail(batch, err)
		return
	}
	for _, p := range batch {
		if p.tc != nil {
			p.tc.AddSpanAt("queue_wait", p.enq, bt.Start().Sub(p.enq))
			p.tc.Merge(bt)
		}
		row := append([]float32(nil), out.Row(slot[p.vertex])...)
		p.done <- inferResult{row: row}
	}
}

func (c *Coalescer) fail(batch []*pendingReq, err error) {
	for _, p := range batch {
		p.done <- inferResult{err: err}
	}
}
