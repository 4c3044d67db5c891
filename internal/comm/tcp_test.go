package comm

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"distgnn/internal/parallel"
	"distgnn/internal/quant"
)

const tcpTestTimeout = 20 * time.Second

func loopback(t *testing.T, n int) []Transport {
	t.Helper()
	eps, err := NewLoopbackTCP(n, tcpTestTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, e := range eps {
			e.Close()
		}
	})
	return eps
}

// TestTCPRendezvousAndP2P: registry rendezvous from only rank 0's address,
// then framed payload exchange across every rank pair — fp32 bit patterns
// and packed words must survive the wire exactly, FIFO per (src,dst,tag).
func TestTCPRendezvousAndP2P(t *testing.T) {
	const n = 4
	eps := loopback(t, n)
	var g parallel.Group
	for r := 0; r < n; r++ {
		ep := eps[r]
		g.Go(func() {
			rank := ep.Self()
			for peer := 0; peer < n; peer++ {
				// Two messages per pair on one tag: order must hold.
				err := ep.Send(rank, peer, &Envelope{Tag: 5, F32: []float32{float32(rank), 0}})
				if err != nil {
					panic(err)
				}
				err = ep.Send(rank, peer, &Envelope{Tag: 5, F32: []float32{float32(rank), 1}})
				if err != nil {
					panic(err)
				}
			}
			for peer := 0; peer < n; peer++ {
				for seq := 0; seq < 2; seq++ {
					env, err := ep.Recv(rank, peer, 5)
					if err != nil {
						panic(err)
					}
					if len(env.F32) != 2 || env.F32[0] != float32(peer) || env.F32[1] != float32(seq) {
						panic("bad payload or FIFO violation")
					}
				}
			}
		})
	}
	g.Wait()
}

// TestTCPPackedAndMetadata: packed 16-bit payloads and their tag and
// precision ride the wire untouched; Poll peeks without consuming.
func TestTCPPackedAndMetadata(t *testing.T) {
	eps := loopback(t, 2)
	words := []uint16{0, 1, 0x7FFF, 0xFFFF, 0xBEEF}
	var g parallel.Group
	g.Go(func() {
		err := eps[0].Send(0, 1, &Envelope{
			Tag: 3, Prec: quant.FP16, U16: words,
		})
		if err != nil {
			panic(err)
		}
	})
	g.Go(func() {
		deadline := time.Now().Add(tcpTestTimeout)
		for {
			env, ok, err := eps[1].Poll(1, 0, 3)
			if err != nil {
				panic(err)
			}
			if ok {
				if env.Tag != 3 || env.Prec != quant.FP16 {
					panic("metadata lost in transit")
				}
				break
			}
			if time.Now().After(deadline) {
				panic("message never arrived")
			}
			time.Sleep(time.Millisecond)
		}
		env, err := eps[1].Recv(1, 0, 3)
		if err != nil {
			panic(err)
		}
		if len(env.U16) != len(words) {
			panic("packed length mismatch")
		}
		for i := range words {
			if env.U16[i] != words[i] {
				panic("packed words corrupted on the wire")
			}
		}
	})
	g.Wait()
}

// TestTCPBarrierSynchronizes: the rendezvous barrier Establish ends with
// lets no rank through before every rank arrives, generation after
// generation.
func TestTCPBarrierSynchronizes(t *testing.T) {
	const n = 3
	eps := loopback(t, n)
	var before, after atomic.Int32
	var g parallel.Group
	for _, ep := range eps {
		ep := ep.(*TCPTransport)
		g.Go(func() {
			for round := 0; round < 5; round++ {
				before.Add(1)
				if err := ep.barrier(); err != nil {
					panic(err)
				}
				if got := before.Load(); int(got) < n*(round+1) {
					panic("rank passed barrier before all arrived")
				}
				after.Add(1)
				if err := ep.barrier(); err != nil {
					panic(err)
				}
			}
		})
	}
	g.Wait()
	if after.Load() != n*5 {
		t.Fatalf("only %d barrier passes", after.Load())
	}
}

// TestTCPRecvDeadline: a receive nothing arrives for fails with ErrTimeout
// instead of hanging the process.
func TestTCPRecvDeadline(t *testing.T) {
	eps, err := NewLoopbackTCP(2, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	if _, err := eps[1].Recv(1, 0, 99); !errors.Is(err, ErrTimeout) {
		t.Fatalf("recv with no sender: %v, want ErrTimeout", err)
	}
}

// TestTCPCloseFailsPendingRecv: tearing the fabric down wakes blocked
// receivers with ErrClosed rather than leaving them parked forever.
func TestTCPCloseFailsPendingRecv(t *testing.T) {
	eps := loopback(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[1].Recv(1, 0, 4)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	eps[1].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv after close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("recv still blocked after Close")
	}
}

// TestTCPSendRejectsOversizedPayload: a payload over the frame limit fails
// at the sender with a clear error, not at the receiver as a torn link.
func TestTCPSendRejectsOversizedPayload(t *testing.T) {
	// Lower the limit before the fleet exists (readers parse handshake
	// frames against it) and restore after every endpoint is closed —
	// cleanups run LIFO, so register the restore first.
	orig := maxFramePayload
	t.Cleanup(func() { maxFramePayload = orig })
	maxFramePayload = 1 << 16
	eps := loopback(t, 2)
	big := make([]float32, maxFramePayload/4+1)
	if err := eps[0].Send(0, 1, &Envelope{Tag: 1, F32: big}); err == nil {
		t.Fatal("oversized send must fail at the sender")
	}
}

// TestTCPEndpointRejectsForeignRank: a single-rank endpoint refuses to act
// as a rank it does not host — the misuse that silently corrupts a mesh.
func TestTCPEndpointRejectsForeignRank(t *testing.T) {
	eps := loopback(t, 2)
	if err := eps[0].Send(1, 0, &Envelope{Tag: 1}); err == nil {
		t.Fatal("send as foreign rank must fail")
	}
	if _, err := eps[0].Recv(1, 0, 1); err == nil {
		t.Fatal("recv as foreign rank must fail")
	}
}

// TestWorldCollectivesMatchAcrossTransports is the substrate-conformance
// core: every collective must produce bit-identical results on the
// in-process world and on TCP endpoints, because reductions apply
// contributions in the same rank order on both.
func TestWorldCollectivesMatchAcrossTransports(t *testing.T) {
	const n, dim = 4, 96
	rng := rand.New(rand.NewSource(11))
	inputs := make([][]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, dim)
		for i := range inputs[r] {
			inputs[r][i] = rng.Float32()*2e6 - 1e6
		}
	}

	type outputs struct {
		allreduce []float32
		gathered  []float32
		broadcast []float32
		alltoall  [][]float32
	}
	runRank := func(w *World, rank int) outputs {
		var o outputs
		o.allreduce = append([]float32(nil), inputs[rank]...)
		w.AllReduceSum(o.allreduce)
		o.gathered = w.AllGather(inputs[rank][:rank+1])
		o.broadcast = append([]float32(nil), inputs[rank]...)
		w.Broadcast(2, o.broadcast)
		send := make([][]float32, n)
		for peer := 0; peer < n; peer++ {
			send[peer] = inputs[rank][:peer]
		}
		o.alltoall = w.AlltoAllV(send)
		return o
	}

	inproc := make([]outputs, n)
	RunInProcess(n, func(w *World) { inproc[w.Self()] = runRank(w, w.Self()) })

	eps := loopback(t, n)
	tcp := make([]outputs, n)
	var g parallel.Group
	for r := 0; r < n; r++ {
		r := r
		g.Go(func() { tcp[r] = runRank(NewWorldTransport(eps[r]), r) })
	}
	g.Wait()

	eq := func(a, b []float32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for r := 0; r < n; r++ {
		if !eq(inproc[r].allreduce, tcp[r].allreduce) {
			t.Fatalf("rank %d: AllReduceSum differs across transports", r)
		}
		if !eq(inproc[r].gathered, tcp[r].gathered) {
			t.Fatalf("rank %d: AllGather differs across transports", r)
		}
		if !eq(inproc[r].broadcast, tcp[r].broadcast) {
			t.Fatalf("rank %d: Broadcast differs across transports", r)
		}
		for src := 0; src < n; src++ {
			if !eq(inproc[r].alltoall[src], tcp[r].alltoall[src]) {
				t.Fatalf("rank %d: AlltoAllV from %d differs across transports", r, src)
			}
		}
	}
}

// TestRequestsOverTCP: the full IsendPacked/Irecv/Wait machinery on
// TCP endpoints delivers exactly what the in-process fabric does,
// including RoundSlice semantics for packed sends.
func TestRequestsOverTCP(t *testing.T) {
	eps := loopback(t, 2)
	src := []float32{1.0001, -2.5, 3.14159, 0, 65000, 6e-8,
		float32(math.Inf(1)), float32(math.NaN())}
	var g parallel.Group
	g.Go(func() {
		w := NewWorldTransport(eps[0])
		w.IsendPacked(1, 1, src, quant.FP32)
		w.IsendPacked(1, 2, src, quant.BF16)
		w.IsendPacked(1, 3, src, quant.FP16)
	})
	var fp32, bf16, fp16 []float32
	g.Go(func() {
		w := NewWorldTransport(eps[1])
		var err error
		if fp32, err = w.Irecv(0, 1).Wait(); err != nil {
			panic(err)
		}
		if bf16, err = w.Irecv(0, 2).Wait(); err != nil {
			panic(err)
		}
		if fp16, err = w.Irecv(0, 3).Wait(); err != nil {
			panic(err)
		}
	})
	g.Wait()

	checks := []struct {
		name string
		got  []float32
		want []float32
	}{
		{"fp32", fp32, src},
		{"bf16", bf16, quant.BF16.RoundSlice(append([]float32(nil), src...))},
		{"fp16", fp16, quant.FP16.RoundSlice(append([]float32(nil), src...))},
	}
	for _, c := range checks {
		for i := range c.want {
			wNaN := math.IsNaN(float64(c.want[i]))
			gNaN := math.IsNaN(float64(c.got[i]))
			if wNaN != gNaN || (!wNaN && c.got[i] != c.want[i]) {
				t.Fatalf("%s element %d: wire delivered %v, want %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
