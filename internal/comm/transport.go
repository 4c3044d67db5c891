package comm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distgnn/internal/quant"
)

// transport.go defines the pluggable comm fabric under World: framed
// point-to-point send/recv of optionally quant-packed messages plus rank
// bootstrap and barrier. Every Transport is one rank's endpoint. Two
// implementations exist: the in-process fabric (procEndpoint, below —
// every rank a goroutine in one process, delivering into per-rank
// mailboxes) and the TCP transport (tcp.go — every rank its own OS
// process, loopback or LAN). The Request machinery and the collectives run
// identically on both, which is what lets the conformance harness pin
// bit-identical training across substrates.

// Fabric failure errors. Transport operations that cannot complete return
// errors wrapping one of these, so callers can distinguish a peer that is
// slow (ErrTimeout, deadline-based) from a fabric that is gone (ErrClosed).
var (
	// ErrTimeout marks an operation that exceeded the transport's configured
	// deadline: a peer that never dialed in, a receive nothing arrived for,
	// a barrier a rank never reached.
	ErrTimeout = errors.New("comm: deadline exceeded")
	// ErrClosed marks operations on a transport after Close, or after a
	// connection failure tore the fabric down.
	ErrClosed = errors.New("comm: transport closed")
)

// Envelope is one framed message: the payload of an Isend, fp32 or
// quant-packed 16-bit words (the packed words are the literal wire format
// on TCP).
type Envelope struct {
	Tag  int
	Prec quant.Precision
	// F32 is the fp32 payload (Prec == quant.FP32); U16 the 16-bit packed
	// payload otherwise. Exactly one is non-nil for non-empty payloads.
	F32 []float32
	U16 []uint16
}

// Transport is a pluggable point-to-point comm fabric over a fixed world
// of N ranks.
//
// Semantics every implementation provides:
//   - Messages between one (from, to, tag) triple are delivered in FIFO
//     post order.
//   - Send does not block on the receiver (buffered-send semantics); for
//     to != Self the envelope's buffers are fully serialized (copied)
//     before Send returns, so the caller may reuse them at once, while
//     self-delivery enqueues the envelope as-is, so callers that will
//     mutate a buffer after a self-send must copy it first.
//   - Recv blocks until a matching envelope arrives, the transport's
//     deadline expires (ErrTimeout), or the fabric fails (ErrClosed).
//   - Poll never consumes: it reports the head matching envelope, if any.
//   - Barrier blocks the calling rank until all N ranks enter it.
type Transport interface {
	// Size is the world size N.
	Size() int
	// Self is the rank this endpoint hosts.
	Self() int
	Send(from, to int, env *Envelope) error
	Recv(to, from, tag int) (*Envelope, error)
	Poll(to, from, tag int) (*Envelope, bool, error)
	Barrier(rank int) error
	Close() error
}

// msgKey addresses one directed (sender, receiver, tag) channel.
type msgKey struct{ src, dst, tag int }

// mailbox holds one endpoint's pending envelopes keyed by (src, dst, tag)
// — the matching structure both transports deliver into (in-process
// senders push straight into the receiver's mailbox; the TCP reader
// goroutines demultiplex inbound frames into one of these).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][]*Envelope
	err    error // whole-fabric failure (Close): fails every waiter
	// srcErr scopes a single connection's failure to receives from that
	// peer: a rank that finished its run and closed cleanly must not abort
	// this rank's in-progress exchanges with everyone else.
	srcErr map[int]error
}

func (mb *mailbox) init() {
	mb.cond = sync.NewCond(&mb.mu)
	mb.queues = make(map[msgKey][]*Envelope)
	mb.srcErr = make(map[int]error)
}

func (mb *mailbox) push(key msgKey, env *Envelope) {
	mb.mu.Lock()
	mb.queues[key] = append(mb.queues[key], env)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// fail marks the whole fabric broken and wakes every waiter.
func (mb *mailbox) fail(err error) {
	mb.mu.Lock()
	if mb.err == nil {
		mb.err = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// failSrc marks one peer's connection broken: only receives from that peer
// fail (once their queues drain), everything else proceeds.
func (mb *mailbox) failSrc(src int, err error) {
	mb.mu.Lock()
	if mb.srcErr[src] == nil {
		mb.srcErr[src] = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// recv dequeues the next envelope for key, blocking up to timeout
// (0 = forever). sync.Cond cannot time out, so a timer broadcast wakes the
// wait loop to observe the deadline.
func (mb *mailbox) recv(key msgKey, timeout time.Duration) (*Envelope, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			// Broadcast under the lock: any waiter that saw the deadline as
			// unexpired is parked in Wait before this fires.
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		})
		defer timer.Stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		// Queued envelopes outrank a fabric failure: a peer that sent its
		// last message and exited is a completed protocol, not an error —
		// its data must stay consumable after the connection drops.
		if q := mb.queues[key]; len(q) > 0 {
			env := q[0]
			if len(q) == 1 {
				delete(mb.queues, key)
			} else {
				mb.queues[key] = q[1:]
			}
			return env, nil
		}
		if err := mb.waitErr(key); err != nil {
			return nil, fmt.Errorf("comm: recv from rank %d tag %d at rank %d: %w",
				key.src, key.tag, key.dst, err)
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("comm: recv from rank %d tag %d at rank %d timed out after %v: %w",
				key.src, key.tag, key.dst, timeout, ErrTimeout)
		}
		mb.cond.Wait()
	}
}

// poll peeks the head envelope for key without consuming it.
func (mb *mailbox) poll(key msgKey) (*Envelope, bool, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if q := mb.queues[key]; len(q) > 0 {
		return q[0], true, nil
	}
	return nil, false, mb.waitErr(key)
}

// waitErr returns the error that makes waiting for key futile: the fabric
// is down, or this key's source connection is. Caller holds mb.mu.
func (mb *mailbox) waitErr(key msgKey) error {
	if mb.err != nil {
		return mb.err
	}
	return mb.srcErr[key.src]
}

// procFabric is the in-process fabric: n rank endpoints in one process.
// A send copies the payload into the receiver's mailbox — the same
// buffer-ownership contract TCP's serialization gives — and the barrier is
// one shared sense-reversing counter. In-process delivery cannot stall on
// a peer, so there are no deadlines.
type procFabric struct {
	eps []*procEndpoint

	barMu   sync.Mutex
	barCond *sync.Cond
	arrived int
	phase   int64
	broken  bool // an endpoint closed: no barrier can complete again
}

// procEndpoint is one rank's view of a procFabric.
type procEndpoint struct {
	f      *procFabric
	rank   int
	box    mailbox // envelopes addressed to this rank
	net    netCounters
	closed atomic.Bool
}

// NewProcFabric builds an in-process fabric over n ranks and returns one
// endpoint per rank, indexed by rank. Drive each from its own goroutine
// (RunInProcess does) and Close every endpoint when done.
func NewProcFabric(n int) []Transport {
	if n < 1 {
		panic(fmt.Sprintf("comm: world size must be ≥1, got %d", n))
	}
	f := &procFabric{eps: make([]*procEndpoint, n)}
	f.barCond = sync.NewCond(&f.barMu)
	out := make([]Transport, n)
	for r := range f.eps {
		ep := &procEndpoint{f: f, rank: r}
		ep.box.init()
		f.eps[r], out[r] = ep, ep
	}
	return out
}

func (t *procEndpoint) Size() int { return len(t.f.eps) }
func (t *procEndpoint) Self() int { return t.rank }

func (t *procEndpoint) Send(from, to int, env *Envelope) error {
	if from != t.rank {
		return fmt.Errorf("comm: endpoint hosts rank %d, cannot send as rank %d", t.rank, from)
	}
	if to < 0 || to >= len(t.f.eps) {
		return fmt.Errorf("comm: send to rank %d outside world of %d", to, len(t.f.eps))
	}
	if t.closed.Load() {
		return ErrClosed
	}
	dst := t.f.eps[to]
	if dst.closed.Load() {
		return fmt.Errorf("comm: rank %d send to rank %d: %w", t.rank, to, ErrClosed)
	}
	if to != t.rank {
		cp := *env
		cp.F32, cp.U16 = slices.Clone(env.F32), slices.Clone(env.U16)
		env = &cp
	}
	t.net.countSend(env.Tag, envelopePayloadBytes(env))
	dst.box.push(msgKey{src: from, dst: to, tag: env.Tag}, env)
	return nil
}

func (t *procEndpoint) Recv(to, from, tag int) (*Envelope, error) {
	if to != t.rank {
		return nil, fmt.Errorf("comm: endpoint hosts rank %d, cannot receive as rank %d", t.rank, to)
	}
	env, err := t.box.recv(msgKey{src: from, dst: to, tag: tag}, 0)
	if err == nil {
		t.net.countRecv(envelopePayloadBytes(env))
	}
	return env, err
}

func (t *procEndpoint) Poll(to, from, tag int) (*Envelope, bool, error) {
	if to != t.rank {
		return nil, false, fmt.Errorf("comm: endpoint hosts rank %d, cannot poll as rank %d", t.rank, to)
	}
	return t.box.poll(msgKey{src: from, dst: to, tag: tag})
}

// NetStats snapshots this rank's traffic counters.
func (t *procEndpoint) NetStats() TransportStats { return t.net.stats() }

// Barrier is a reusable sense-reversing barrier across all n ranks. It
// fails with ErrClosed once any endpoint has closed.
func (t *procEndpoint) Barrier(rank int) error {
	if rank != t.rank {
		return fmt.Errorf("comm: endpoint hosts rank %d, cannot barrier as rank %d", t.rank, rank)
	}
	f := t.f
	f.barMu.Lock()
	defer f.barMu.Unlock()
	if f.broken {
		return fmt.Errorf("comm: rank %d barrier: %w", t.rank, ErrClosed)
	}
	phase := f.phase
	f.arrived++
	if f.arrived == len(f.eps) {
		f.arrived = 0
		f.phase++
		f.barCond.Broadcast()
		return nil
	}
	for f.phase == phase && !f.broken {
		f.barCond.Wait()
	}
	if f.phase == phase {
		return fmt.Errorf("comm: rank %d barrier: %w", t.rank, ErrClosed)
	}
	return nil
}

// Close shuts this rank's endpoint: its own operations fail with
// ErrClosed, peers' receives from it fail once their queues drain (as a
// dropped TCP connection does), and pending barriers are released with
// ErrClosed. Idempotent.
func (t *procEndpoint) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	t.box.fail(ErrClosed)
	for _, ep := range t.f.eps {
		if ep != t {
			ep.box.failSrc(t.rank, fmt.Errorf("comm: rank %d closed: %w", t.rank, ErrClosed))
		}
	}
	f := t.f
	f.barMu.Lock()
	f.broken = true
	f.barMu.Unlock()
	f.barCond.Broadcast()
	return nil
}
