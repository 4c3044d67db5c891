package comm

import (
	"errors"
	"testing"
	"time"

	"distgnn/internal/quant"
)

// TestTransportContract runs the Transport contract over both fabrics: a
// buffer mutated after Send to a peer does not change what the peer
// receives (netAllReduceSum sends its reduce buffer and then recycles it),
// delivery is FIFO per (from, to, tag), Poll never consumes, and a closed
// endpoint fails with ErrClosed.
func TestTransportContract(t *testing.T) {
	const n = 3
	fabrics := map[string]func(t *testing.T) []Transport{
		"inproc": func(*testing.T) []Transport { return NewProcFabric(n) },
		"tcp": func(t *testing.T) []Transport {
			eps, err := NewLoopbackTCP(n, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			return eps
		},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, eps []Transport)
	}{
		{"send copies payload", func(t *testing.T, eps []Transport) {
			f32 := []float32{1, 2, 3}
			u16 := []uint16{4, 5}
			if err := eps[0].Send(0, 1, &Envelope{Tag: 1, F32: f32}); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Send(0, 2, &Envelope{Tag: 1, U16: u16, Prec: quant.BF16}); err != nil {
				t.Fatal(err)
			}
			f32[0], u16[0] = 99, 99
			got, err := eps[1].Recv(1, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.F32[0] != 1 {
				t.Fatalf("peer saw the sender's later write: %v", got.F32)
			}
			got, err = eps[2].Recv(2, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got.U16[0] != 4 {
				t.Fatalf("peer saw the sender's later write: %v", got.U16)
			}
		}},
		{"fifo per key", func(t *testing.T, eps []Transport) {
			const msgs = 20
			for i := 0; i < msgs; i++ {
				for _, tag := range []int{3, 4} {
					if err := eps[2].Send(2, 0, &Envelope{Tag: tag, F32: []float32{float32(i)}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, tag := range []int{4, 3} {
				for i := 0; i < msgs; i++ {
					got, err := eps[0].Recv(0, 2, tag)
					if err != nil {
						t.Fatal(err)
					}
					if got.F32[0] != float32(i) {
						t.Fatalf("tag %d message %d arrived as %v", tag, i, got.F32[0])
					}
				}
			}
		}},
		{"poll does not consume", func(t *testing.T, eps []Transport) {
			if _, ok, err := eps[1].Poll(1, 2, 9); ok || err != nil {
				t.Fatalf("poll of an empty key: %v %v", ok, err)
			}
			if err := eps[2].Send(2, 1, &Envelope{Tag: 9, F32: []float32{7}}); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, ok, err := eps[1].Poll(1, 2, 9)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("message never became pollable")
				}
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < 2; i++ {
				if env, ok, err := eps[1].Poll(1, 2, 9); !ok || err != nil || env.F32[0] != 7 {
					t.Fatalf("poll %d: %v %v %v", i, env, ok, err)
				}
			}
			if got, err := eps[1].Recv(1, 2, 9); err != nil || got.F32[0] != 7 {
				t.Fatalf("recv after polls: %v %v", got, err)
			}
		}},
		{"closed endpoint", func(t *testing.T, eps []Transport) {
			eps[1].Close()
			if err := eps[1].Send(1, 0, &Envelope{Tag: 1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("send after close: %v", err)
			}
			if _, err := eps[1].Recv(1, 0, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("recv after close: %v", err)
			}
			if _, _, err := eps[1].Poll(1, 0, 1); !errors.Is(err, ErrClosed) {
				t.Fatalf("poll after close: %v", err)
			}
		}},
	}
	for fabric, build := range fabrics {
		for _, tc := range cases {
			t.Run(fabric+"/"+tc.name, func(t *testing.T) {
				eps := build(t)
				defer CloseAll(eps)
				tc.run(t, eps)
			})
		}
	}
}
