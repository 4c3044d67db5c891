package comm

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// reqRepFabrics builds each transport the serve plane runs on: the
// in-process fabric and a loopback TCP mesh, both over n ranks.
func reqRepFabrics(t *testing.T, n int) map[string][]Transport {
	t.Helper()
	tcp, err := NewLoopbackTCP(n, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]Transport{"inproc": NewProcFabric(n), "tcp": tcp}
}

// TestReqRepEchoBothTransports: a request round-trips bit-exactly through
// an echo handler on both fabrics, including float payloads that are bit
// patterns of integers (the vertex-ID lane).
func TestReqRepEchoBothTransports(t *testing.T) {
	const n = 3
	for name, eps := range reqRepFabrics(t, n) {
		rrs := make([]*ReqRep, n)
		for r := 0; r < n; r++ {
			rr, err := NewReqRep(eps[r], func(from int, _ uint64, req []float32) ([]float32, error) {
				out := append([]float32{float32(from)}, req...)
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			rrs[r] = rr
		}
		ids := []int32{0, 1, -7, 1 << 20, math.MaxInt32}
		req := Int32sToF32(ids)
		rep, err := rrs[0].Call(2, 0, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep) != 1+len(req) || rep[0] != 0 {
			t.Fatalf("%s: echo reply %v", name, rep)
		}
		got := F32ToInt32s(rep[1:])
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("%s: id %d round-tripped to %d", name, ids[i], got[i])
			}
		}
		CloseAll(eps)
	}
}

// TestReqRepConcurrentFanOut hammers the RPC plane the way the sharded
// gather does: every rank calls every other rank from many goroutines at
// once, with per-call payloads that must come back matched to their own
// request (tags, not order, pair replies with calls).
func TestReqRepConcurrentFanOut(t *testing.T) {
	const n = 3
	for name, eps := range reqRepFabrics(t, n) {
		rrs := make([]*ReqRep, n)
		for r := 0; r < n; r++ {
			r := r
			rr, err := NewReqRep(eps[r], func(from int, _ uint64, req []float32) ([]float32, error) {
				// Reply = responder rank followed by the doubled request IDs.
				ids := F32ToInt32s(req)
				for i := range ids {
					ids[i] *= 2
				}
				return append([]float32{float32(r)}, Int32sToF32(ids)...), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			rrs[r] = rr
		}
		var wg sync.WaitGroup
		errc := make(chan error, n*n*8)
		for r := 0; r < n; r++ {
			for peer := 0; peer < n; peer++ {
				if peer == r {
					continue
				}
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(r, peer, w int) {
						defer wg.Done()
						for i := 0; i < 25; i++ {
							ids := []int32{int32(r*1000 + peer*100 + w*10 + i)}
							rep, err := rrs[r].Call(peer, 0, Int32sToF32(ids))
							if err != nil {
								errc <- err
								return
							}
							if len(rep) != 2 || int(rep[0]) != peer {
								errc <- fmt.Errorf("reply from wrong responder: %v", rep)
								return
							}
							if got := F32ToInt32s(rep[1:])[0]; got != 2*ids[0] {
								errc <- fmt.Errorf("call %d: reply %d, want %d", ids[0], got, 2*ids[0])
								return
							}
						}
					}(r, peer, w)
				}
			}
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%s: %v", name, err)
		}
		CloseAll(eps)
	}
}

// TestReqRepErrorCrossesWire: a handler error arrives at the caller as an
// error carrying the handler's message, on both fabrics.
func TestReqRepErrorCrossesWire(t *testing.T) {
	const n = 2
	for name, eps := range reqRepFabrics(t, n) {
		if _, err := NewReqRep(eps[1], func(from int, _ uint64, req []float32) ([]float32, error) {
			return nil, fmt.Errorf("vertex 42 not owned here")
		}); err != nil {
			t.Fatal(err)
		}
		caller, err := NewReqRep(eps[0], func(int, uint64, []float32) ([]float32, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		_, err = caller.Call(1, 0, []float32{1})
		if err == nil || !strings.Contains(err.Error(), "vertex 42 not owned here") {
			t.Fatalf("%s: handler error did not cross the wire: %v", name, err)
		}
		CloseAll(eps)
	}
}

// TestReqRepMisuse pins the defined misuse errors: self-calls, rank out of
// world, closed endpoint.
func TestReqRepMisuse(t *testing.T) {
	eps := NewProcFabric(2)
	defer CloseAll(eps)
	rr, err := NewReqRep(eps[0], func(int, uint64, []float32) ([]float32, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Call(0, 0, nil); err == nil {
		t.Fatal("self-call must error")
	}
	if _, err := rr.Call(5, 0, nil); err == nil {
		t.Fatal("out-of-world call must error")
	}
	rr.Close()
	if _, err := rr.Call(1, 0, nil); err == nil {
		t.Fatal("call on closed endpoint must error")
	}
}

// TestPackBytesRoundTrip: the byte→float packing used for error messages
// round-trips arbitrary lengths.
func TestPackBytesRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "abcde", "halo fetch: rank 3"} {
		packed := PackBytes([]byte(s))
		got, err := UnpackBytes(packed, len(s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte(s)) {
			t.Fatalf("%q round-tripped to %q", s, got)
		}
	}
	if _, err := UnpackBytes([]float32{0}, 9); err == nil {
		t.Fatal("undersized unpack must error")
	}
	if _, err := UnpackBytes(nil, -1); err == nil {
		t.Fatal("negative length must error")
	}
}

// TestServeTagRangeDisjoint documents the tag-plane contract: serve tags
// sit above every tag the training path generates and every collective tag.
func TestServeTagRangeDisjoint(t *testing.T) {
	if ServeTagBase <= 0 {
		t.Fatal("serve tag range must be positive")
	}
	// Training p2p tags are epoch-scaled small ints; 1<<20 epochs × layers
	// stays far below the reserved base.
	if maxTrainTag := (1 << 24); maxTrainTag >= ServeTagBase {
		t.Fatalf("training tag headroom %d crosses the serve base %d", maxTrainTag, ServeTagBase)
	}
}

// timeoutOnceTransport injects exactly one ErrTimeout into the first
// reply-tag Recv, then delegates to the wrapped fabric. On the in-process
// transport the delegated Recv has no deadline, so a pre-fix Call's
// background drain goroutine blocks forever — the leak this stub exposes.
type timeoutOnceTransport struct {
	Transport
	mu    sync.Mutex
	fired bool
}

func (t *timeoutOnceTransport) Recv(to, from, tag int) (*Envelope, error) {
	if tag > ServeTagBase {
		t.mu.Lock()
		first := !t.fired
		t.fired = true
		t.mu.Unlock()
		if first {
			return nil, fmt.Errorf("injected: %w", ErrTimeout)
		}
	}
	return t.Transport.Recv(to, from, tag)
}

// TestReqRepTimeoutDrainerReapedOnClose is the drain-leak regression pin:
// a Call that times out spawns a late-reply drainer, and Close must reap
// it. Pre-fix, the drainer was a bare Recv with no deadline on the
// in-process fabric — it blocked forever, so the goroutine count never
// dropped back after Close.
func TestReqRepTimeoutDrainerReapedOnClose(t *testing.T) {
	eps := NewProcFabric(2)
	tr := &timeoutOnceTransport{Transport: eps[0]}
	entered := make(chan struct{})
	block := make(chan struct{})
	r0, err := NewReqRep(tr, func(int, uint64, []float32) ([]float32, error) {
		return nil, fmt.Errorf("rank 0 serves nothing here")
	})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewReqRep(eps[1], func(int, uint64, []float32) ([]float32, error) {
		close(entered)
		<-block // the reply never arrives inside the test window
		return []float32{1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		r1.Close()
		CloseAll(eps)
	}()

	if _, err := r0.Call(1, 0, []float32{42}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Call: got %v, want ErrTimeout", err)
	}
	// Synchronize: the handler goroutine is parked and the drainer (spawned
	// synchronously inside Call) is registered, so the count is stable.
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never entered")
	}
	before := runtime.NumGoroutine()

	r0.Close() // must reap the drainer before returning

	// Post-fix the drainer is gone when Close returns, so the count drops
	// below the pre-Close reading. The pre-fix drainer is a Recv blocked
	// forever — the count never drops and the deadline fires.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n < before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before Close, %d after (drainer not reaped)",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReqRepCloseIdempotent pins that double-Close is safe.
func TestReqRepCloseIdempotent(t *testing.T) {
	eps := NewProcFabric(2)
	defer CloseAll(eps)
	rr, err := NewReqRep(eps[0], func(_ int, _ uint64, req []float32) ([]float32, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	rr.Close()
	rr.Close()
	if _, err := rr.Call(1, 0, []float32{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close: got %v, want ErrClosed", err)
	}
}
