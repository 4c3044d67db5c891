package comm

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"distgnn/internal/quant"
)

func TestIsendIrecvDeliversPayload(t *testing.T) {
	w := procWorlds(2)
	payload := []float32{1, 2, 3.5, -4}
	send := w[0].Isend(1, 7, payload)
	// Buffered-send semantics: the caller's slice is reusable immediately.
	payload[0] = 99

	recv := w[1].Irecv(0, 7)
	if ok, err := recv.Test(); err != nil || !ok {
		t.Fatalf("posted message must test complete: %v %v", ok, err)
	}
	got, err := recv.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3.5, -4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := send.Wait(); err != nil {
		t.Fatalf("send Wait: %v", err)
	}
}

func TestIrecvTestReportsPending(t *testing.T) {
	w := procWorlds(2)
	recv := w[1].Irecv(0, 3)
	if ok, err := recv.Test(); err != nil || ok {
		t.Fatalf("no message posted: Test = %v, %v", ok, err)
	}
	w[0].Isend(1, 3, []float32{1})
	if ok, err := recv.Test(); err != nil || !ok {
		t.Fatalf("message posted: Test = %v, %v", ok, err)
	}
	if _, err := recv.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestMisuseHasDefinedErrors(t *testing.T) {
	// Wait before post: the zero-value Request was never produced by
	// Isend/Irecv.
	var zero Request
	if _, err := zero.Wait(); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("Wait on unposted request: %v, want ErrNotPosted", err)
	}
	if _, err := zero.Test(); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("Test on unposted request: %v, want ErrNotPosted", err)
	}
	if _, err := zero.TestHidden(); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("TestHidden on unposted request: %v, want ErrNotPosted", err)
	}

	// Double Wait on both sides of a completed exchange.
	w := procWorlds(2)
	send := w[0].Isend(1, 1, []float32{1})
	recv := w[1].Irecv(0, 1)
	for _, r := range []*Request{send, recv} {
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Wait(); !errors.Is(err, ErrAlreadyWaited) {
			t.Fatalf("double Wait: %v, want ErrAlreadyWaited", err)
		}
		if _, err := r.Test(); !errors.Is(err, ErrAlreadyWaited) {
			t.Fatalf("Test after Wait: %v, want ErrAlreadyWaited", err)
		}
	}
}

func TestWaitAllReturnsFirstErrorButDrains(t *testing.T) {
	w := procWorlds(2)
	w[0].Isend(1, 1, []float32{1})
	w[0].Isend(1, 2, []float32{2})
	good1 := w[1].Irecv(0, 1)
	good2 := w[1].Irecv(0, 2)
	var bad Request
	if err := w[1].WaitAll(good1, &bad, good2); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("WaitAll: %v, want ErrNotPosted", err)
	}
	// Both good requests must have been drained despite the error.
	for _, r := range []*Request{good1, good2} {
		if _, err := r.Wait(); !errors.Is(err, ErrAlreadyWaited) {
			t.Fatalf("request not drained by WaitAll: %v", err)
		}
	}
}

func TestSameKeyMessagesDeliverFIFO(t *testing.T) {
	w := procWorlds(2)
	const n = 16
	for i := 0; i < n; i++ {
		w[0].Isend(1, 5, []float32{float32(i)})
	}
	for i := 0; i < n; i++ {
		got, err := w[1].Irecv(0, 5).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float32(i) {
			t.Fatalf("message %d out of order: got %v", i, got[0])
		}
	}
}

func TestIsendPackedMatchesRoundSlice(t *testing.T) {
	for _, p := range []quant.Precision{quant.BF16, quant.FP16} {
		w := procWorlds(2)
		src := []float32{1.0001, -2.5, 3.14159, 0, 65000, 6e-8,
			float32(math.Inf(1)), float32(math.NaN())}
		w[0].IsendPacked(1, 1, src, p)
		got, err := w[1].Irecv(0, 1).Wait()
		if err != nil {
			t.Fatal(err)
		}
		want := p.RoundSlice(append([]float32(nil), src...))
		for i := range want {
			wNaN := math.IsNaN(float64(want[i]))
			gNaN := math.IsNaN(float64(got[i]))
			if wNaN != gNaN || (!wNaN && got[i] != want[i]) {
				t.Fatalf("%v: element %d: packed wire delivered %v, RoundSlice %v",
					p, i, got[i], want[i])
			}
		}
	}
}

// TestConcurrentIsendIrecvWaitAll hammers the mailbox from every rank at
// once — the workload the race detector checks (race_on/race_off pattern:
// rounds shrink under instrumentation).
func TestConcurrentIsendIrecvWaitAll(t *testing.T) {
	rounds := 40
	if raceEnabled {
		rounds = 10
	}
	for _, n := range []int{2, 4, 8} {
		RunInProcess(n, func(w *World) {
			rank := w.Self()
			for round := 0; round < rounds; round++ {
				// Post all sends first, then all receives, then WaitAll —
				// no rank ever blocks another's posts.
				for peer := 0; peer < n; peer++ {
					w.Isend(peer, round, []float32{float32(rank), float32(round)})
				}
				reqs := make([]*Request, n)
				for peer := 0; peer < n; peer++ {
					reqs[peer] = w.Irecv(peer, round)
				}
				if err := w.WaitAll(reqs...); err != nil {
					panic(err)
				}
				for peer, r := range reqs {
					data := r.data
					if len(data) != 2 || data[0] != float32(peer) || data[1] != float32(round) {
						panic(fmt.Sprintf("rank %d round %d: bad payload from %d: %v",
							rank, round, peer, data))
					}
				}
			}
		})
	}
}

func TestPostXferOverlapAccounting(t *testing.T) {
	cm := &CostModel{NetLatency: 1e-6, NetBandwidth: 1e9, MemBandwidth: 1e9}
	// 1000 bytes: 1 µs latency + 1 µs serialization = 2 µs.
	ready := cm.PostXfer(0, 1000)
	if ready != 2000 {
		t.Fatalf("transfer: ready %d, want 2000", ready)
	}
	// Back-to-back posts serialize on the injection port.
	ready2 := cm.PostXfer(0, 1000)
	if ready2 != 4000 {
		t.Fatalf("second post must queue behind the first: ready %d, want 4000", ready2)
	}

	// No compute: the full remainder is exposed at Wait.
	if got := cm.WaitXfer(0, ready); got != 2e-6 {
		t.Fatalf("exposed %v, want 2µs", got)
	}
	// The wait advanced the clock to the completion time, so the second
	// transfer has 2 µs left.
	if got := cm.WaitXfer(0, ready2); got != 2e-6 {
		t.Fatalf("second exposed %v, want 2µs", got)
	}

	// Compute past the completion time hides a transfer entirely.
	ready3 := cm.PostXfer(0, 1000)
	cm.ChargeCompute(0, 1e-3)
	if got := cm.WaitXfer(0, ready3); got != 0 {
		t.Fatalf("hidden transfer exposed %v, want 0", got)
	}

	// Partial overlap: compute covers half, the rest is exposed.
	cm2 := &CostModel{NetLatency: 0, NetBandwidth: 1e9, MemBandwidth: 1e9}
	ready4 := cm2.PostXfer(0, 2000) // 2 µs
	cm2.ChargeCompute(0, 1e-6)
	if got := cm2.WaitXfer(0, ready4); got != 1e-6 {
		t.Fatalf("partial overlap exposed %v, want 1µs", got)
	}
}

func TestTestHiddenFollowsSimulatedClock(t *testing.T) {
	w := procWorlds(2)
	cm := &CostModel{NetLatency: 1e-6, NetBandwidth: 1e9, MemBandwidth: 1e9}
	w[0].ConfigureAsync(cm)
	w[1].ConfigureAsync(cm)

	w[0].Isend(1, 1, make([]float32, 250)) // 1000 bytes → 2 µs
	recv := w[1].Irecv(0, 1)
	// Physically present but simulated-in-flight: Test true, TestHidden false.
	if ok, _ := recv.Test(); !ok {
		t.Fatal("message must be physically present")
	}
	if ok, _ := recv.TestHidden(); ok {
		t.Fatal("transfer cannot be hidden with no compute charged")
	}
	cm.ChargeCompute(1, 1e-5)
	if ok, _ := recv.TestHidden(); !ok {
		t.Fatal("transfer must be hidden after 10µs of compute")
	}
	if _, err := recv.Wait(); err != nil {
		t.Fatal(err)
	}
	if recv.Exposed() != 0 {
		t.Fatalf("hidden transfer exposed %v", recv.Exposed())
	}
}
