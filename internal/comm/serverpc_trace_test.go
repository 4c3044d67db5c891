package comm

import (
	"sync"
	"testing"
	"time"
)

// TestReqRepTracedFrames pins the trace-ID frame extension: a traced Call
// delivers the trace ID to the handler, an untraced one (trace 0) delivers
// zero, and both coexist on one endpoint pair (the frames are
// self-describing).
func TestReqRepTracedFrames(t *testing.T) {
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var trs []Transport
			switch fabric {
			case "inproc":
				trs = NewProcFabric(2)
				defer CloseAll(trs)
			case "tcp":
				eps, err := NewLoopbackTCP(2, 10*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				trs = eps
				defer func() {
					for _, ep := range eps {
						ep.Close()
					}
				}()
			}

			var mu sync.Mutex
			var seen []uint64
			echo := func(from int, trace uint64, req []float32) ([]float32, error) {
				mu.Lock()
				seen = append(seen, trace)
				mu.Unlock()
				return req, nil
			}
			r0, err := NewReqRep(trs[0], echo)
			if err != nil {
				t.Fatal(err)
			}
			defer r0.Close()
			r1, err := NewReqRep(trs[1], echo)
			if err != nil {
				t.Fatal(err)
			}
			defer r1.Close()

			const trace = uint64(0xdeadbeefcafe0123)
			rep, err := r1.Call(0, trace, []float32{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep) != 3 || rep[0] != 1 {
				t.Fatalf("traced echo reply = %v", rep)
			}
			if _, err := r1.Call(0, 0, []float32{4}); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(seen) != 2 || seen[0] != trace || seen[1] != 0 {
				t.Fatalf("handler saw traces %x, want [%x 0]", seen, trace)
			}
		})
	}
}

// TestTransportNetStats pins the byte accounting: payload bytes counted
// per direction and attributed to the tag plane they rode.
func TestTransportNetStats(t *testing.T) {
	eps := NewProcFabric(2)
	defer CloseAll(eps)
	src, ok := eps[0].(NetStatsSource)
	if !ok {
		t.Fatal("proc transport must implement NetStatsSource")
	}

	// One message per plane: collective (negative tag), p2p, serve range.
	for _, tag := range []int{-5, 7, ServeTagBase} {
		if err := eps[0].Send(0, 1, &Envelope{Tag: tag, F32: make([]float32, 8)}); err != nil {
			t.Fatal(err)
		}
		if _, err := eps[1].Recv(1, 0, tag); err != nil {
			t.Fatal(err)
		}
	}
	st := src.NetStats()
	rst := eps[1].(NetStatsSource).NetStats()
	if st.SentMsgs != 3 || rst.RecvMsgs != 3 {
		t.Fatalf("msgs = %d/%d, want 3/3", st.SentMsgs, rst.RecvMsgs)
	}
	if st.SentBytes != 96 || rst.RecvBytes != 96 {
		t.Fatalf("bytes = %d/%d, want 96/96 (3×8 floats)", st.SentBytes, rst.RecvBytes)
	}
	if st.CollectiveBytes != 32 || st.P2PBytes != 32 || st.ServeBytes != 32 {
		t.Fatalf("plane split = %d/%d/%d, want 32 each",
			st.CollectiveBytes, st.P2PBytes, st.ServeBytes)
	}
	if st.RecvMsgs != 0 || rst.SentMsgs != 0 {
		t.Fatalf("each endpoint counts only its own traffic: sender recv %d, receiver sent %d",
			st.RecvMsgs, rst.SentMsgs)
	}
}

// TestTCPNetStats pins the TCP endpoint's accounting, including the
// self-send loopback counting both directions.
func TestTCPNetStats(t *testing.T) {
	eps, err := NewLoopbackTCP(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	if err := eps[0].Send(0, 1, &Envelope{Tag: 3, F32: make([]float32, 4)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].Recv(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	st0 := eps[0].(NetStatsSource).NetStats()
	st1 := eps[1].(NetStatsSource).NetStats()
	if st0.SentBytes != 16 || st0.SentMsgs != 1 {
		t.Fatalf("sender stats = %+v", st0)
	}
	if st1.RecvBytes != 16 || st1.RecvMsgs != 1 {
		t.Fatalf("receiver stats = %+v", st1)
	}
	// Self-send: one message counted both ways on the one endpoint.
	if err := eps[0].Send(0, 0, &Envelope{Tag: 1, F32: make([]float32, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[0].Recv(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	st0 = eps[0].(NetStatsSource).NetStats()
	if st0.SentBytes != 24 || st0.RecvBytes != 8 {
		t.Fatalf("self-send stats = %+v", st0)
	}
}
