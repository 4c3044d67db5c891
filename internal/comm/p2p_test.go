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
	send := w[0].IsendPacked(1, 7, payload, quant.FP32)
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
	w[0].IsendPacked(1, 3, []float32{1}, quant.FP32)
	if ok, err := recv.Test(); err != nil || !ok {
		t.Fatalf("message posted: Test = %v, %v", ok, err)
	}
	if _, err := recv.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestRequestMisuseHasDefinedErrors(t *testing.T) {
	// Wait before post: the zero-value Request was never produced by
	// IsendPacked/Irecv.
	var zero Request
	if _, err := zero.Wait(); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("Wait on unposted request: %v, want ErrNotPosted", err)
	}
	if _, err := zero.Test(); !errors.Is(err, ErrNotPosted) {
		t.Fatalf("Test on unposted request: %v, want ErrNotPosted", err)
	}

	// Double Wait on both sides of a completed exchange.
	w := procWorlds(2)
	send := w[0].IsendPacked(1, 1, []float32{1}, quant.FP32)
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

func TestSameKeyMessagesDeliverFIFO(t *testing.T) {
	w := procWorlds(2)
	const n = 16
	for i := 0; i < n; i++ {
		w[0].IsendPacked(1, 5, []float32{float32(i)}, quant.FP32)
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

// TestConcurrentIsendIrecvWait hammers the mailbox from every rank at
// once — the workload the race detector checks (race_on/race_off pattern:
// rounds shrink under instrumentation).
func TestConcurrentIsendIrecvWait(t *testing.T) {
	rounds := 40
	if raceEnabled {
		rounds = 10
	}
	for _, n := range []int{2, 4, 8} {
		RunInProcess(n, func(w *World) {
			rank := w.Self()
			for round := 0; round < rounds; round++ {
				// Post all sends first, then all receives, then wait each
				// receive in turn — no rank ever blocks another's posts.
				for peer := 0; peer < n; peer++ {
					w.IsendPacked(peer, round, []float32{float32(rank), float32(round)}, quant.FP32)
				}
				reqs := make([]*Request, n)
				for peer := 0; peer < n; peer++ {
					reqs[peer] = w.Irecv(peer, round)
				}
				for peer, r := range reqs {
					data, err := r.Wait()
					if err != nil {
						panic(err)
					}
					if len(data) != 2 || data[0] != float32(peer) || data[1] != float32(round) {
						panic(fmt.Sprintf("rank %d round %d: bad payload from %d: %v",
							rank, round, peer, data))
					}
				}
			}
		})
	}
}
