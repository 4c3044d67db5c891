// Package comm provides the communication substrate DistGNN gets from
// torch.distributed + OneCCL in the paper: a fixed-size world of ranks
// (one per CPU socket) with point-to-point messaging, AlltoAllV and
// AllReduce collectives, and async send queues — over a pluggable
// Transport. Every rank drives its own endpoint. In-process mode runs each
// rank as a goroutine over a mailbox fabric that copies real data between
// ranks; TCP mode (tcp.go) runs each rank as its own OS process over a
// real network. One collective implementation (collectives_net.go) serves
// both, so results are bit-identical across fabrics. The package moves
// data and keeps no simulated time: the α–β cost model (costmodel.go) is
// a set of pure formulas the trainer applies to the traffic it counts.
package comm

import (
	"sync"

	"distgnn/internal/parallel"
)

// World is one rank's communicator over N ranks. All collective operations
// are synchronous across the full world and deterministic: reductions are
// applied in rank order regardless of arrival order, so distributed runs
// are bit-reproducible — on the in-process fabric and over TCP alike.
type World struct {
	N int

	self int
	tr   Transport
	// collSeq reserves a fresh negative tag per collective
	// (collectives_net.go). User p2p tags are non-negative, so the spaces
	// never collide.
	collSeq int
}

// NewWorldTransport wraps one rank's Transport endpoint in a World.
func NewWorldTransport(t Transport) *World {
	return &World{N: t.Size(), self: t.Self(), tr: t}
}

// Transport returns the endpoint under this world.
func (w *World) Transport() Transport { return w.tr }

// Self returns the rank this endpoint hosts.
func (w *World) Self() int { return w.self }

// Barrier blocks until all N ranks have called it.
func (w *World) Barrier() {
	if err := w.tr.Barrier(w.self); err != nil {
		panic(err)
	}
}

// RunInProcess builds an n-rank in-process fabric, runs fn once per rank
// with that rank's World, waits for every rank, and closes the fabric.
func RunInProcess(n int, fn func(w *World)) {
	eps := NewProcFabric(n)
	defer CloseAll(eps)
	ws := make([]*World, n)
	for r, ep := range eps {
		ws[r] = NewWorldTransport(ep)
	}
	RunRanks(ws, fn)
}

// RunRanks runs fn once per world, each on its own goroutine, and waits
// for all of them. Ranks block on one another, so each needs a dedicated
// goroutine rather than a slot in the bounded kernel pool. If a rank
// panics, every world's endpoint is closed so its peers fail with
// ErrClosed instead of blocking forever, and the first panic is re-raised
// once all ranks settle.
func RunRanks(ws []*World, fn func(w *World)) {
	var (
		once  sync.Once
		first any
		wg    sync.WaitGroup
	)
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { first = p })
					for _, w := range ws {
						w.tr.Close()
					}
				}
			}()
			fn(w)
		}()
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// CloseAll closes every endpoint of a fabric.
func CloseAll(eps []Transport) {
	for _, ep := range eps {
		ep.Close()
	}
}

// reduceScratch recycles the rank-0 reduction buffers — AllReduceSum runs
// once per epoch per rank over the full flattened gradient, which used to
// allocate the whole buffer every time.
var reduceScratch parallel.Scratch[float32]
