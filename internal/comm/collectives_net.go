package comm

import (
	"fmt"

	"distgnn/internal/tensor"
)

// collectives_net.go implements every collective over the rank's Transport
// endpoint — the in-process fabric and TCP alike, rounding out the OneCCL
// surface the paper's torch.distributed integration uses. Every collective
// reserves a fresh tag from the negative tag space — user p2p tags are
// non-negative — and since all ranks execute collectives in the same
// global order, per-endpoint sequence counters agree without coordination.
// Reductions apply contributions in rank order, so every fabric produces
// bit-identical results (pinned by the cross-transport conformance
// harness).

// nextCollTag reserves a fresh collective tag on this endpoint.
func (w *World) nextCollTag() int {
	w.collSeq++
	return -w.collSeq
}

// sendPeers ships buf to every rank but self under tag. The transport
// copies or serializes before returning, so buf is not retained.
func (w *World) sendPeers(tag int, buf []float32) {
	for peer := 0; peer < w.N; peer++ {
		if peer == w.self {
			continue
		}
		if err := w.tr.Send(w.self, peer, &Envelope{Tag: tag, F32: buf}); err != nil {
			panic(err)
		}
	}
}

// recvPeer blocks for rank src's contribution under tag.
func (w *World) recvPeer(src, tag int) []float32 {
	env, err := w.tr.Recv(w.self, src, tag)
	if err != nil {
		panic(err)
	}
	return env.F32
}

// AllReduceSum sums data elementwise across all ranks; every rank's buffer
// holds the total on return. All ranks must pass equal-length buffers.
//
// It is a gather-to-root + broadcast: rank 0 reduces every contribution in
// rank order onto +0, ((0 + d0) + d1) + …, so every rank's result is
// bit-identical, and fans the sum back out. 2(N-1) buffer transfers
// total, versus N(N-1) for the flat all-to-all form; for the per-epoch
// gradient AllReduce (the dominant TCP volume) that is the difference
// between 4× line rate and 28× at 8 ranks.
func (w *World) AllReduceSum(data []float32) {
	rank := w.self
	tag := w.nextCollTag()
	if rank != 0 {
		if err := w.tr.Send(rank, 0, &Envelope{Tag: tag, F32: data}); err != nil {
			panic(err)
		}
		sum := w.recvPeer(0, tag)
		if len(sum) != len(data) {
			panic(fmt.Sprintf("comm: AllReduceSum length mismatch: rank %d has %d, rank 0 reduced %d",
				rank, len(data), len(sum)))
		}
		copy(data, sum)
		return
	}
	out := reduceScratch.GetZeroed(len(data))
	for r := 0; r < w.N; r++ {
		src := data
		if r != rank {
			src = w.recvPeer(r, tag)
			if len(src) != len(data) {
				panic(fmt.Sprintf("comm: AllReduceSum length mismatch: rank %d has %d, rank %d sent %d",
					rank, len(data), r, len(src)))
			}
		}
		tensor.Accumulate(out, src)
	}
	w.sendPeers(tag, out)
	copy(data, out)
	reduceScratch.Put(out)
}

// AlltoAllV exchanges variable-length float32 buffers: send[j] goes to rank
// j, and the returned recv[j] is the buffer rank j sent to this rank.
// Every rank must pass a send slice of length N (nil entries mean empty).
// Returned buffers are copies owned by the caller.
func (w *World) AlltoAllV(send [][]float32) [][]float32 {
	rank := w.self
	if len(send) != w.N {
		panic(fmt.Sprintf("comm: AlltoAllV rank %d passed %d buffers, world size %d",
			rank, len(send), w.N))
	}
	tag := w.nextCollTag()
	// Empty buffers are sent too (zero-length frames), so every rank can
	// post exactly N-1 receives without out-of-band length negotiation.
	for peer := 0; peer < w.N; peer++ {
		if peer == rank {
			continue
		}
		if err := w.tr.Send(rank, peer, &Envelope{Tag: tag, F32: send[peer]}); err != nil {
			panic(err)
		}
	}
	recv := make([][]float32, w.N)
	if len(send[rank]) > 0 {
		recv[rank] = append([]float32(nil), send[rank]...)
	}
	for src := 0; src < w.N; src++ {
		if src == rank {
			continue
		}
		if buf := w.recvPeer(src, tag); len(buf) > 0 {
			recv[src] = buf
		}
	}
	return recv
}

// Broadcast copies root's buffer into every rank's buffer. All ranks must
// pass equal-length buffers and the same root.
func (w *World) Broadcast(root int, data []float32) {
	rank := w.self
	if root < 0 || root >= w.N {
		panic(fmt.Sprintf("comm: broadcast root %d outside world of %d", root, w.N))
	}
	tag := w.nextCollTag()
	if rank == root {
		w.sendPeers(tag, data)
		return
	}
	src := w.recvPeer(root, tag)
	if len(src) != len(data) {
		panic(fmt.Sprintf("comm: broadcast length mismatch: rank %d has %d, root has %d",
			rank, len(data), len(src)))
	}
	copy(data, src)
}

// AllGather concatenates every rank's buffer in rank order; each rank
// receives the full concatenation. Buffers may have different lengths.
func (w *World) AllGather(data []float32) []float32 {
	rank := w.self
	tag := w.nextCollTag()
	w.sendPeers(tag, data)
	var out []float32
	for r := 0; r < w.N; r++ {
		if r == rank {
			out = append(out, data...)
		} else {
			out = append(out, w.recvPeer(r, tag)...)
		}
	}
	return out
}

// ReduceScatterSum splits each rank's buffer into N equal chunks, sums
// chunk i across ranks, and returns this rank's chunk of the sum — the
// first half of a ring AllReduce. Buffer length must be a multiple of N and
// equal on all ranks.
func (w *World) ReduceScatterSum(data []float32) []float32 {
	rank := w.self
	if len(data)%w.N != 0 {
		panic(fmt.Sprintf("comm: reduce-scatter length %d not divisible by world size %d",
			len(data), w.N))
	}
	chunk := len(data) / w.N
	tag := w.nextCollTag()
	for peer := 0; peer < w.N; peer++ {
		if peer == rank {
			continue
		}
		if err := w.tr.Send(rank, peer, &Envelope{Tag: tag, F32: data[peer*chunk : (peer+1)*chunk]}); err != nil {
			panic(err)
		}
	}
	out := make([]float32, chunk)
	for r := 0; r < w.N; r++ {
		src := data[rank*chunk : (rank+1)*chunk]
		if r != rank {
			src = w.recvPeer(r, tag)
			if len(src) != chunk {
				panic(fmt.Sprintf("comm: reduce-scatter chunk mismatch: rank %d expected %d, rank %d sent %d",
					rank, chunk, r, len(src)))
			}
		}
		tensor.Accumulate(out, src)
	}
	return out
}
