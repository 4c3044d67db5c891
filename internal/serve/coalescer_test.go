package serve

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distgnn/internal/obs"
	"distgnn/internal/tensor"
)

// echoInfer returns a 1-col matrix whose row i holds float32(vertex_i), so
// routing bugs (wrong row to wrong waiter) are visible.
func echoInfer(calls *atomic.Int64, seen *atomic.Int64) func([]int32, *obs.TraceCtx) (*tensor.Matrix, error) {
	return func(vs []int32, _ *obs.TraceCtx) (*tensor.Matrix, error) {
		calls.Add(1)
		seen.Add(int64(len(vs)))
		out := tensor.New(len(vs), 1)
		for i, v := range vs {
			out.Set(i, 0, float32(v))
		}
		return out, nil
	}
}

func TestCoalescerMergesConcurrentRequests(t *testing.T) {
	var calls, seen atomic.Int64
	slow := func(vs []int32, tc *obs.TraceCtx) (*tensor.Matrix, error) {
		time.Sleep(time.Millisecond) // let the window fill
		return echoInfer(&calls, &seen)(vs, tc)
	}
	c := NewCoalescer(slow, 16, 50*time.Millisecond, 0)
	defer c.Close()

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v := int32(i % 8) // heavy duplication across requests
			row, err := c.Submit(context.Background(), v)
			if err != nil {
				errs <- err
				return
			}
			if int32(row[0]) != v {
				errs <- fmt.Errorf("vertex %d got row %v", v, row[0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Requests != n {
		t.Fatalf("requests %d", st.Requests)
	}
	if st.Batches >= n {
		t.Fatalf("no coalescing: %d batches for %d requests", st.Batches, n)
	}
	if st.DedupSaved == 0 {
		t.Fatal("duplicates were not deduplicated")
	}
	if seen.Load()+st.DedupSaved != n {
		t.Fatalf("inferred %d + dedup %d != %d requests", seen.Load(), st.DedupSaved, n)
	}
}

func TestCoalescerBatchOfOneMode(t *testing.T) {
	var calls, seen atomic.Int64
	c := NewCoalescer(echoInfer(&calls, &seen), 1, time.Millisecond, 0)
	defer c.Close()
	for i := 0; i < 5; i++ {
		row, err := c.Submit(context.Background(), int32(i))
		if err != nil {
			t.Fatal(err)
		}
		if int32(row[0]) != int32(i) {
			t.Fatalf("got %v", row[0])
		}
	}
	if calls.Load() != 5 {
		t.Fatalf("batch-of-1 made %d calls", calls.Load())
	}
	st := c.Stats()
	if st.Batches != 5 || st.AvgBatch != 1 || st.BatchedRequests != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoalescerIdleStartsAtOnce pins the work-conserving rule: a request
// that finds no batch running starts one at once instead of waiting out
// maxWait for batch mates.
func TestCoalescerIdleStartsAtOnce(t *testing.T) {
	var calls, seen atomic.Int64
	c := NewCoalescer(echoInfer(&calls, &seen), 16, time.Second, 0)
	defer c.Close()
	for i := 0; i < 3; i++ {
		start := time.Now()
		row, err := c.Submit(context.Background(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if int32(row[0]) != 42 {
			t.Fatalf("got %v", row[0])
		}
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("lone Submit on an idle coalescer waited %v (maxWait 1s)", elapsed)
		}
	}
}

// blockingInfer is echoInfer, except that a batch holding vertex `hold`
// signals entered and then blocks until release is closed.
func blockingInfer(hold int32, entered chan<- struct{}, release <-chan struct{}) func([]int32, *obs.TraceCtx) (*tensor.Matrix, error) {
	var calls, seen atomic.Int64
	echo := echoInfer(&calls, &seen)
	return func(vs []int32, tc *obs.TraceCtx) (*tensor.Matrix, error) {
		if slices.Contains(vs, hold) {
			entered <- struct{}{}
			<-release
		}
		return echo(vs, tc)
	}
}

// awaitEntered waits for a batch to signal it is inside infer.
func awaitEntered(t *testing.T, entered <-chan struct{}) {
	t.Helper()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no batch entered infer")
	}
}

// submitAsync runs Submit on its own goroutine and delivers its outcome.
func submitAsync(c *Coalescer, v int32) <-chan error {
	res := make(chan error, 1)
	go func() {
		row, err := c.Submit(context.Background(), v)
		if err == nil && int32(row[0]) != v {
			err = fmt.Errorf("vertex %d got row %v", v, row[0])
		}
		res <- err
	}()
	return res
}

// TestCoalescerTimerFlushesPartialBatch pins the timer path: while one
// batch is held inside infer, a second request fills the next batch, and
// maxWait — not the running batch — flushes it.
func TestCoalescerTimerFlushesPartialBatch(t *testing.T) {
	const maxWait = 20 * time.Millisecond
	entered, release := make(chan struct{}, 1), make(chan struct{})
	c := NewCoalescer(blockingInfer(1, entered, release), 1024, maxWait, 0)
	defer c.Close()

	first := submitAsync(c, 1)
	awaitEntered(t, entered) // the first batch is running and stays running
	start := time.Now()
	select {
	case err := <-submitAsync(c, 2):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("maxWait did not flush the partial batch")
	}
	if elapsed := time.Since(start); elapsed < maxWait {
		t.Fatalf("partial batch flushed after %v, before maxWait %v", elapsed, maxWait)
	}
	select {
	case err := <-first:
		t.Fatalf("first batch finished before release (err %v)", err)
	default:
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Batches != 2 || st.Requests != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCoalescerBatchCompletionFlushesFill pins the third flush trigger: a
// batch filling behind a running one starts as soon as that batch
// finishes, long before maxWait.
func TestCoalescerBatchCompletionFlushesFill(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	c := NewCoalescer(blockingInfer(1, entered, release), 1024, time.Hour, 0)
	defer c.Close()

	first := submitAsync(c, 1)
	awaitEntered(t, entered)
	second := submitAsync(c, 2)
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Pending < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("second request never admitted: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, res := range []<-chan error{first, second} {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("filling batch did not start when the running batch finished")
		}
	}
}

// TestCoalescerCloseDrainsInflightBatches closes the coalescer while
// several batches are blocked inside infer, then releases them: every
// Submit returns its row or ErrCoalescerClosed, and no goroutine — in
// particular no batch reporting its completion to the exited dispatcher —
// outlives the drain.
func TestCoalescerCloseDrainsInflightBatches(t *testing.T) {
	before := runtime.NumGoroutine()
	const n, v = 4, 7 // every batch holds v, so every batch blocks
	entered, release := make(chan struct{}, n+1), make(chan struct{})
	c := NewCoalescer(blockingInfer(v, entered, release), 4, time.Millisecond, 0)

	var results []<-chan error
	for i := 0; i < n; i++ {
		results = append(results, submitAsync(c, v))
		awaitEntered(t, entered) // batch i is running: n batches end up in flight
	}
	results = append(results, submitAsync(c, v)) // fills behind them
	c.Close()
	close(release)

	for i, res := range results {
		select {
		case err := <-res:
			if err != nil && err != ErrCoalescerClosed {
				t.Fatalf("request %d: unexpected error %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d stranded across Close", i)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive Close (had %d before):\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCoalescerPropagatesInferenceError(t *testing.T) {
	boom := fmt.Errorf("boom")
	c := NewCoalescer(func([]int32, *obs.TraceCtx) (*tensor.Matrix, error) { return nil, boom }, 4, time.Millisecond, 0)
	defer c.Close()
	if _, err := c.Submit(context.Background(), 1); err == nil {
		t.Fatal("error swallowed")
	}
}

func TestCoalescerContextCancel(t *testing.T) {
	block := make(chan struct{})
	c := NewCoalescer(func(vs []int32, _ *obs.TraceCtx) (*tensor.Matrix, error) {
		<-block
		return tensor.New(len(vs), 1), nil
	}, 1, time.Millisecond, 0)
	defer c.Close()
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx, 1); err == nil {
		t.Fatal("canceled submit returned no error")
	}
}

func TestCoalescerClosedSubmitFails(t *testing.T) {
	var calls, seen atomic.Int64
	c := NewCoalescer(echoInfer(&calls, &seen), 4, time.Millisecond, 0)
	c.Close()
	if _, err := c.Submit(context.Background(), 1); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestCoalescerCloseNeverStrandsSubmit is the shutdown-stranding regression
// pin: pre-fix, a Submit that enqueued concurrently with Close could block
// forever (the waiting select did not watch quit, and dispatch exited
// without draining the request channel). Hammer Submit against Close under
// the race detector and require every Submit to return — with either a
// real result or ErrCoalescerClosed — within a hard deadline.
func TestCoalescerCloseNeverStrandsSubmit(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		var calls, seen atomic.Int64
		c := NewCoalescer(echoInfer(&calls, &seen), 8, 100*time.Microsecond, 0)

		const n = 24
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Cancel-free context: pre-fix, this Submit could hang.
				row, err := c.Submit(context.Background(), int32(i))
				switch {
				case err == nil:
					if int32(row[0]) != int32(i) {
						errs <- fmt.Errorf("vertex %d got row %v", i, row[0])
					}
				case err == ErrCoalescerClosed:
				default:
					errs <- fmt.Errorf("vertex %d: unexpected error %v", i, err)
				}
			}(i)
		}
		// Close races the Submits above.
		go c.Close()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: Submit stranded across Close", iter)
		}
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// TestCoalescerAdmissionControlSheds pins the bounded-pending contract:
// once maxPending requests are admitted and unanswered, further Submits
// fail fast with ErrSaturated and are counted as shed.
func TestCoalescerAdmissionControlSheds(t *testing.T) {
	release := make(chan struct{})
	c := NewCoalescer(func(vs []int32, _ *obs.TraceCtx) (*tensor.Matrix, error) {
		<-release
		out := tensor.New(len(vs), 1)
		for i, v := range vs {
			out.Set(i, 0, float32(v))
		}
		return out, nil
	}, 1, time.Millisecond, 2)
	defer c.Close()

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := c.Submit(context.Background(), int32(i))
			results <- err
		}(i)
	}
	// Wait until both occupy the pending budget.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Pending < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("pending never reached 2: %+v", c.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Submit(context.Background(), 99); err != ErrSaturated {
		t.Fatalf("over-budget Submit: got %v, want ErrSaturated", err)
	}
	if st := c.Stats(); st.Shed != 1 || st.MaxPending != 2 {
		t.Fatalf("stats %+v", st)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if st := c.Stats(); st.Pending != 0 {
		t.Fatalf("pending not drained: %+v", st)
	}
}

// TestCoalescerCloseWaitsForDrain pins that Close blocks until the
// dispatcher has handed every stranded request its error: after Close
// returns, a fresh Submit must fail immediately.
func TestCoalescerCloseWaitsForDrain(t *testing.T) {
	var calls, seen atomic.Int64
	c := NewCoalescer(echoInfer(&calls, &seen), 4, time.Millisecond, 0)
	c.Close()
	start := time.Now()
	if _, err := c.Submit(context.Background(), 1); err != ErrCoalescerClosed {
		t.Fatalf("post-close Submit: got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("post-close Submit blocked %v", d)
	}
}
