package comm

import (
	"errors"
	"fmt"

	"distgnn/internal/quant"
)

// p2p.go is the nonblocking point-to-point layer: MPI-style Isend/Irecv
// returning Request handles with Test/Wait/WaitAll semantics over the
// world's Transport — the in-process fabric or TCP, identical behavior on
// both. Payloads are copied (and, for 16-bit wire formats, packed) by the
// time Isend returns, so a sender's buffer is immediately reusable and
// the transfer proceeds "in the background"; the α–β cost of the transfer
// accrues on the simulated clock concurrently with whatever compute the
// poster charges, and only the un-hidden remainder is charged when the
// receiver Waits — the accounting that lets cd-rs hide network time behind
// compute (§6.3).

// Defined misuse errors: the Request lifecycle is post → (Test)* → Wait,
// exactly once each side.
var (
	// ErrNotPosted is returned by Test/Wait on a zero-value Request that was
	// never produced by Isend/Irecv.
	ErrNotPosted = errors.New("comm: request was never posted")
	// ErrAlreadyWaited is returned by a second Wait (or a Test after Wait) on
	// a completed request.
	ErrAlreadyWaited = errors.New("comm: request already completed by Wait")
)

// Request is a handle on one nonblocking operation. The zero value is not
// posted; only Isend/Irecv produce live requests.
type Request struct {
	w       *World
	recv    bool
	rank    int // the rank charged for exposed wait time (receiver side)
	key     msgKey
	done    bool
	data    []float32 // completed receive payload
	exposed float64   // un-hidden network seconds charged at Wait
	err     error     // send side: transport failure, surfaced at Wait
}

// ConfigureAsync attaches the α–β cost model used to account nonblocking
// transfers (nil disables accounting).
func (w *World) ConfigureAsync(cm *CostModel) { w.asyncCost = cm }

func (w *World) checkRank(name string, r int) {
	if r < 0 || r >= w.N {
		panic(fmt.Sprintf("comm: %s rank %d outside world of %d", name, r, w.N))
	}
}

// Isend posts a nonblocking send of data from this rank to rank `to`.
// The payload is copied at post time, so the caller's buffer is immediately
// reusable; the matching Irecv observes the values as posted. The returned
// request completes trivially (buffered-send semantics) — Wait it to keep
// the post/wait pairing uniform.
func (w *World) Isend(to, tag int, data []float32) *Request {
	return w.post(to, tag, data, quant.FP32)
}

// IsendPacked is Isend with the payload packed into the 16-bit wire format
// at post time — compression rides the request path, off the critical path
// of the compute the transfer overlaps, and on the TCP fabric the packed
// words are the literal bytes on the wire. The receiver's Wait unpacks, so
// it observes exactly RoundSlice(data). FP32 falls back to Isend.
func (w *World) IsendPacked(to, tag int, data []float32, p quant.Precision) *Request {
	return w.post(to, tag, data, p)
}

func (w *World) post(to, tag int, data []float32, p quant.Precision) *Request {
	w.checkRank("Isend destination", to)
	from := w.self
	env := &Envelope{Tag: tag, Prec: p}
	if p == quant.FP32 {
		if to != from {
			// A peer's Send copies or serializes the buffer before
			// returning (the Transport contract), so the caller's slice
			// needs no defensive copy here.
			env.F32 = data
		} else {
			// Self-sends enqueue the envelope as-is; copy so the sender's
			// buffer is immediately reusable.
			env.F32 = append([]float32(nil), data...)
		}
	} else {
		env.U16 = p.Pack(make([]uint16, 0, len(data)), data)
	}
	if w.asyncCost != nil {
		env.ReadyNs = w.asyncCost.PostXfer(from, len(data)*p.Bytes())
	}
	err := w.tr.Send(from, to, env)
	return &Request{w: w, rank: from, key: msgKey{src: from, dst: to, tag: tag}, err: err}
}

// Irecv posts a nonblocking receive for the next message rank `from` sends
// this rank with this tag. The payload is delivered by Wait.
func (w *World) Irecv(from, tag int) *Request {
	w.checkRank("Irecv source", from)
	return &Request{w: w, recv: true, rank: w.self,
		key: msgKey{src: from, dst: w.self, tag: tag}}
}

// Test reports whether Wait would complete without blocking. Sends are
// always complete (the payload was copied at post time); a receive is
// complete once the matching message has been posted. Test never consumes
// the message.
func (r *Request) Test() (bool, error) {
	if r.w == nil {
		return false, ErrNotPosted
	}
	if r.done {
		return false, ErrAlreadyWaited
	}
	if !r.recv {
		return true, nil
	}
	_, ok, err := r.w.tr.Poll(r.key.dst, r.key.src, r.key.tag)
	return ok, err
}

// TestHidden reports whether Wait would complete immediately AND charge
// zero exposed network time at this rank's current simulated clock — i.e.
// the transfer is both physically delivered and fully hidden behind the
// compute charged so far. Layer-boundary drains use it so the set of
// messages reeled in early is a function of simulated time only, keeping
// runs deterministic regardless of goroutine scheduling.
func (r *Request) TestHidden() (bool, error) {
	if r.w == nil {
		return false, ErrNotPosted
	}
	if r.done {
		return false, ErrAlreadyWaited
	}
	if !r.recv {
		return true, nil
	}
	env, ok, err := r.w.tr.Poll(r.key.dst, r.key.src, r.key.tag)
	if err != nil || !ok {
		return false, err
	}
	cm := r.w.asyncCost
	if cm == nil {
		return true, nil
	}
	return cm.clockNs(r.rank) >= env.ReadyNs, nil
}

// Wait blocks until the operation completes and returns the received
// payload (nil for sends). For receives with a cost model attached, Wait
// charges this rank only the part of the α+bytes/β transfer that the
// rank's compute since the post did not hide. A request may be waited
// exactly once. On a transport with
// deadlines (TCP), a receive nothing arrives for fails with an error
// wrapping ErrTimeout instead of blocking forever.
func (r *Request) Wait() ([]float32, error) {
	if r.w == nil {
		return nil, ErrNotPosted
	}
	if r.done {
		return nil, ErrAlreadyWaited
	}
	r.done = true
	if !r.recv {
		return nil, r.err
	}
	env, err := r.w.tr.Recv(r.key.dst, r.key.src, r.key.tag)
	if err != nil {
		return nil, err
	}

	if env.Prec == quant.FP32 {
		r.data = env.F32
	} else {
		r.data = env.Prec.Unpack(make([]float32, 0, len(env.U16)), env.U16)
	}
	if cm := r.w.asyncCost; cm != nil {
		r.exposed = cm.WaitXfer(r.rank, env.ReadyNs)
	}
	return r.data, nil
}

// Exposed returns the un-hidden network seconds charged when this request
// was waited (0 before Wait, for sends, or without a cost model).
func (r *Request) Exposed() float64 { return r.exposed }

// WaitAll waits every request in order and returns the first error
// encountered; it still drains the remaining requests so no message is
// left stranded in the mailbox.
func (w *World) WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
