package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// serverpc.go is the serving data plane over a Transport: a minimal tagged
// request/reply layer the sharded inference engines use for halo feature
// fetches. It reserves its own tag range so serve traffic can share a
// fabric with anything else the transport carries:
//
//   - collectives use negative tags (collectives_net.go),
//   - training p2p tags are small non-negative ints (epoch-scaled),
//   - the serve plane owns [ServeTagBase, ∞): requests from any rank travel
//     on exactly ServeTagBase, and the reply to request id i travels on
//     ServeTagBase+1+i. Reply tags are unique per in-flight call on a
//     (caller, responder) pair, so concurrent calls never cross.
//
// Payloads ride the Envelope's float32 lane: integer fields (request ids,
// vertex IDs, byte lengths) are carried as raw bit patterns via
// math.Float32bits, which both fabrics transmit exactly (the TCP codec is a
// bit-for-bit uint32 round trip), so the encoding survives either wire.

// ServeTagBase is the first tag of the range reserved for the serving
// request/reply plane. Application p2p traffic must stay below it.
const ServeTagBase = 1 << 30

// reqRepStatusOK / reqRepStatusErr lead every reply payload.
const (
	reqRepStatusOK  = 0
	reqRepStatusErr = 1
)

// reqRepIDMask wraps request ids inside 30 bits so the id survives the
// uint32 wire encoding exactly and the reply tag stays a small positive
// offset into the reserved range. Caller and responder derive the reply
// tag from the same masked id; a wrap collision would need 2^30 in-flight
// calls on one (caller, responder) pair.
const reqRepIDMask = 1<<30 - 1

// reqRepTraceFlag marks a traced request frame in the id word's top bit
// (bits 30–31 are outside the id mask, so the flag never collides with an
// id). A traced frame carries two extra header words — the 64-bit trace
// ID split lo/hi — between the id word and the request body, which is how
// a request's trace identity crosses the fabric on halo fetches. Untraced
// frames are byte-identical to the pre-extension protocol.
const reqRepTraceFlag = 1 << 31

// ReqRepHandler answers one request from rank `from`; trace is the
// caller's trace ID (0 for an untraced request), so a responder can
// attribute served work to the originating request across ranks. It runs
// on the responder's goroutines (one per in-flight request) and must be
// safe for concurrent use. The returned slice is copied or serialized
// before the reply is delivered.
type ReqRepHandler func(from int, trace uint64, req []float32) ([]float32, error)

// ReqRep is the request/reply endpoint for one rank: it answers peers'
// requests through the handler and issues its own via Call.
//
// Shutdown contract: Close stops issuing new calls, then reaps every
// late-reply drainer a timed-out Call left behind — after Close returns, no
// goroutine this endpoint spawned for its own calls remains (the pre-fix
// behaviour leaked one blocked-forever Recv per timed-out call on a
// deadline-free fabric). The responder goroutines exit when the underlying
// transport closes (the transport stays owned by the caller). Close is
// idempotent and safe from any goroutine.
type ReqRep struct {
	tr      Transport
	rank    int
	handler ReqRepHandler
	seq     atomic.Int64
	closed  atomic.Bool

	quit     chan struct{}  // closed by Close; wakes the drainers
	drainMu  sync.Mutex     // gates drainer registration against Close
	drainers sync.WaitGroup // live late-reply drainers
}

// drainPollInterval paces the late-reply drainer's mailbox polls. Polling
// (a non-consuming peek) instead of a blocking Recv is the fix for the
// drain leak: Recv has no deadline on the in-process fabric, so a blocked
// drainer could never be reclaimed.
const drainPollInterval = 2 * time.Millisecond

// NewReqRep starts the responder goroutines (one per peer) and returns the
// endpoint, speaking as the transport's own rank.
func NewReqRep(tr Transport, handler ReqRepHandler) (*ReqRep, error) {
	rank := tr.Self()
	r := &ReqRep{tr: tr, rank: rank, handler: handler, quit: make(chan struct{})}
	for peer := 0; peer < tr.Size(); peer++ {
		if peer != rank {
			go r.respond(peer)
		}
	}
	return r, nil
}

// Call sends req to peer and blocks for the reply (or the transport's
// deadline / failure). A nonzero trace rides the request frame (see
// reqRepTraceFlag); trace == 0 sends the untraced frame. The returned slice
// is the reply payload, owned by the caller.
func (r *ReqRep) Call(peer int, trace uint64, req []float32) ([]float32, error) {
	if peer == r.rank {
		return nil, fmt.Errorf("comm: reqrep rank %d cannot call itself", r.rank)
	}
	if peer < 0 || peer >= r.tr.Size() {
		return nil, fmt.Errorf("comm: reqrep call to rank %d outside world of %d", peer, r.tr.Size())
	}
	if r.closed.Load() {
		return nil, fmt.Errorf("comm: reqrep closed: %w", ErrClosed)
	}
	id := uint32(r.seq.Add(1)) & reqRepIDMask
	head := 1
	if trace != 0 {
		head = 3
	}
	payload := make([]float32, 0, head+len(req))
	if trace != 0 {
		payload = append(payload,
			math.Float32frombits(id|reqRepTraceFlag),
			math.Float32frombits(uint32(trace)),
			math.Float32frombits(uint32(trace>>32)))
	} else {
		payload = append(payload, math.Float32frombits(id))
	}
	payload = append(payload, req...)
	if err := r.tr.Send(r.rank, peer, &Envelope{Tag: ServeTagBase, F32: payload}); err != nil {
		return nil, err
	}
	env, err := r.tr.Recv(r.rank, peer, replyTag(id))
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			// The responder may still deliver after our deadline; without a
			// reader its envelope would sit in the mailbox forever. Drain it
			// in the background with a tracked, poll-based drainer that Close
			// reaps — a blocking Recv here would be unbounded on the
			// in-process fabric, which has no receive deadline.
			r.drainLate(peer, id)
		}
		return nil, err
	}
	return decodeReply(peer, env.F32)
}

// drainLate consumes a reply that arrives after its Call's deadline so the
// envelope does not sit in the mailbox forever. The drainer peeks with Poll
// (never blocks) and exits as soon as it consumes the reply, the fabric
// reports failure, or Close reaps it via quit.
func (r *ReqRep) drainLate(peer int, id uint32) {
	r.drainMu.Lock()
	if r.closed.Load() {
		// Shutting down: the mailbox dies with the transport; nothing to
		// reclaim and Close may already be waiting on the group.
		r.drainMu.Unlock()
		return
	}
	r.drainers.Add(1)
	r.drainMu.Unlock()
	go func() {
		defer r.drainers.Done()
		tick := time.NewTicker(drainPollInterval)
		defer tick.Stop()
		for {
			_, ok, err := r.tr.Poll(r.rank, peer, replyTag(id))
			if err != nil {
				return // fabric or peer connection down: no reply can arrive
			}
			if ok {
				// Only this drainer ever receives this reply tag, so the
				// just-peeked envelope is still queued and Recv is immediate.
				_, _ = r.tr.Recv(r.rank, peer, replyTag(id))
				return
			}
			select {
			case <-r.quit:
				return
			case <-tick.C:
			}
		}
	}()
}

// Close marks the endpoint closed for new calls and reaps the late-reply
// drainers; it returns once none remain. In-flight calls and the responder
// goroutines drain when the transport closes. Idempotent.
func (r *ReqRep) Close() {
	r.drainMu.Lock()
	if !r.closed.Swap(true) {
		close(r.quit)
	}
	r.drainMu.Unlock()
	r.drainers.Wait()
}

// respond drains one peer's request stream. Each request is handled on its
// own goroutine so a slow handler cannot head-of-line block the peer's
// later requests — replies are matched by tag, not order. An idle-receive
// deadline (the TCP transport bounds every Recv) is not a failure: a
// serving peer may simply have no cross-shard traffic for a while, so the
// loop re-arms on ErrTimeout and exits only when the fabric is down.
func (r *ReqRep) respond(peer int) {
	for {
		env, err := r.tr.Recv(r.rank, peer, ServeTagBase)
		if err != nil {
			if errors.Is(err, ErrTimeout) && !r.closed.Load() {
				continue
			}
			return // fabric or peer connection down: the endpoint is done
		}
		go r.handleOne(peer, env.F32)
	}
}

func (r *ReqRep) handleOne(peer int, req []float32) {
	if len(req) < 1 {
		return // not a framed request; nothing to reply to
	}
	idWord := math.Float32bits(req[0])
	id := idWord & reqRepIDMask
	var trace uint64
	body0 := 1
	if idWord&reqRepTraceFlag != 0 {
		if len(req) < 3 {
			return // traced frame missing its trace words; nothing to reply to
		}
		trace = uint64(math.Float32bits(req[1])) | uint64(math.Float32bits(req[2]))<<32
		body0 = 3
	}
	body, err := r.handler(peer, trace, req[body0:])
	var reply []float32
	if err != nil {
		reply = encodeErrorReply(err)
	} else {
		reply = make([]float32, 0, 1+len(body))
		reply = append(reply, math.Float32frombits(reqRepStatusOK))
		reply = append(reply, body...)
	}
	if serr := r.tr.Send(r.rank, peer, &Envelope{Tag: replyTag(id), F32: reply}); serr != nil {
		// The fabric can refuse a well-formed reply for request-dependent
		// reasons — an oversized frame, most plausibly — so downgrade to a
		// (tiny) error reply carrying the refusal instead of leaving the
		// caller to block out its deadline. If the fabric itself is down
		// this send fails too and the caller's Recv observes that failure.
		_ = r.tr.Send(r.rank, peer, &Envelope{Tag: replyTag(id), F32: encodeErrorReply(serr)})
	}
}

func replyTag(id uint32) int { return ServeTagBase + 1 + int(id) }

// encodeErrorReply frames a handler error as [status, byteLen, packed
// message bytes] so the failure reason crosses the wire instead of
// degrading to a generic transport error.
func encodeErrorReply(err error) []float32 {
	msg := []byte(err.Error())
	out := make([]float32, 2, 2+(len(msg)+3)/4)
	out[0] = math.Float32frombits(reqRepStatusErr)
	out[1] = math.Float32frombits(uint32(len(msg)))
	return append(out, PackBytes(msg)...)
}

func decodeReply(peer int, payload []float32) ([]float32, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("comm: reqrep reply from rank %d missing status word", peer)
	}
	switch math.Float32bits(payload[0]) {
	case reqRepStatusOK:
		return payload[1:], nil
	case reqRepStatusErr:
		if len(payload) < 2 {
			return nil, fmt.Errorf("comm: reqrep error reply from rank %d truncated", peer)
		}
		n := int(math.Float32bits(payload[1]))
		msg, err := UnpackBytes(payload[2:], n)
		if err != nil {
			return nil, fmt.Errorf("comm: reqrep error reply from rank %d corrupt: %v", peer, err)
		}
		return nil, fmt.Errorf("comm: reqrep rank %d: %s", peer, msg)
	default:
		return nil, fmt.Errorf("comm: reqrep reply from rank %d has unknown status %#x",
			peer, math.Float32bits(payload[0]))
	}
}

// Int32sToF32 reinterprets ids as float32 bit patterns for transport on the
// Envelope's float lane. Values round-trip exactly on both fabrics.
func Int32sToF32(ids []int32) []float32 {
	out := make([]float32, len(ids))
	for i, v := range ids {
		out[i] = math.Float32frombits(uint32(v))
	}
	return out
}

// F32ToInt32s is the inverse of Int32sToF32.
func F32ToInt32s(fs []float32) []int32 {
	out := make([]int32, len(fs))
	for i, v := range fs {
		out[i] = int32(math.Float32bits(v))
	}
	return out
}

// PackBytes packs raw bytes little-endian, four per float32 bit pattern.
func PackBytes(b []byte) []float32 {
	out := make([]float32, (len(b)+3)/4)
	for i := range out {
		var w uint32
		for j := 0; j < 4; j++ {
			if p := 4*i + j; p < len(b) {
				w |= uint32(b[p]) << (8 * j)
			}
		}
		out[i] = math.Float32frombits(w)
	}
	return out
}

// UnpackBytes is the inverse of PackBytes for a payload of n bytes.
func UnpackBytes(fs []float32, n int) ([]byte, error) {
	if n < 0 || (n+3)/4 > len(fs) {
		return nil, fmt.Errorf("comm: %d packed floats cannot hold %d bytes", len(fs), n)
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(math.Float32bits(fs[i/4]) >> (8 * (i % 4)))
	}
	return out, nil
}
