package comm

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"distgnn/internal/parallel"
	"distgnn/internal/quant"
)

// tcp.go is the multi-process fabric: every rank its own OS process,
// framed messages (frame.go) over one TCP connection per rank pair.
// Rendezvous goes through rank 0's registry listener — only rank 0's
// address needs to be known up front: every other rank dials it, registers
// its own listen address, and receives the full rank→address table, after
// which the nonzero ranks complete the mesh among themselves (lower rank
// accepts, higher rank dials). Connections are established once and reused
// for the whole run; every dial, handshake, write, blocked receive, and
// barrier wait is bounded by the configured deadline and fails with an
// error wrapping ErrTimeout rather than hanging a training fleet.

// DefaultTCPTimeout bounds TCP dial/handshake/send/recv/barrier waits when
// TCPConfig.Timeout is zero.
const DefaultTCPTimeout = 60 * time.Second

// TCPConfig configures one rank's TCP endpoint.
type TCPConfig struct {
	// Rank is this process's rank; N the world size.
	Rank, N int
	// Peers lists listen addresses by rank. Only Peers[0] — the rank-0
	// registry — is required on nonzero ranks; ranks whose entry is absent
	// or empty bind an ephemeral loopback port and report it during
	// registration. Every rank (rank 0 included) binds Listen when set,
	// else its own Peers entry, else an ephemeral loopback port.
	Peers []string
	// Listen overrides this rank's bind address. Default: Peers[Rank] when
	// set, else "127.0.0.1:0".
	Listen string
	// Advertise is the address this rank registers with the rendezvous —
	// the address peers dial it on. Defaults to the bound listener address,
	// which is right for loopback fleets; cross-machine ranks that bind a
	// wildcard or NATed interface must set it to a routable host:port (or
	// supply the full Peers table, which bypasses advertisement).
	Advertise string
	// Timeout bounds every fabric operation (default DefaultTCPTimeout;
	// negative disables deadlines).
	Timeout time.Duration
}

// tcpPeer is one established connection, shared by Send (serialized by mu)
// and a dedicated reader goroutine.
type tcpPeer struct {
	mu      sync.Mutex
	c       net.Conn
	scratch []byte // frame encode buffer, reused across sends
}

// TCPTransport is a single-rank Transport endpoint over TCP. Construct
// with NewTCPTransport (binds the listener, so Addr is immediately
// routable), then Establish to run the rendezvous and build the mesh.
type TCPTransport struct {
	rank, n   int
	timeout   time.Duration
	ln        net.Listener
	registry  []string // Peers hints from TCPConfig; [0] is the rendezvous address
	advertise string
	peers     []*tcpPeer
	box       mailbox

	// Establish's closing barrier, coordinated by rank 0: nonzero ranks
	// send kindBarrier and wait for kindRelease; rank 0 collects N-1
	// arrivals, then releases every rank.
	arrive  chan struct{}
	release chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once

	net netCounters
}

// NetStats snapshots this endpoint's traffic counters.
func (t *TCPTransport) NetStats() TransportStats { return t.net.stats() }

// NewTCPTransport binds this rank's listener and returns the endpoint.
// No peer traffic happens until Establish.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	if cfg.N < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.N {
		return nil, fmt.Errorf("comm: tcp rank %d outside world of %d", cfg.Rank, cfg.N)
	}
	if cfg.Rank != 0 && cfg.N > 1 && (len(cfg.Peers) == 0 || cfg.Peers[0] == "") {
		return nil, fmt.Errorf("comm: tcp rank %d needs the rank-0 registry address in Peers[0]", cfg.Rank)
	}
	bind := cfg.Listen
	if bind == "" && cfg.Rank < len(cfg.Peers) {
		bind = cfg.Peers[cfg.Rank]
	}
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("comm: tcp rank %d listen %s: %w", cfg.Rank, bind, err)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = DefaultTCPTimeout
	} else if timeout < 0 {
		timeout = 0
	}
	t := &TCPTransport{
		rank: cfg.Rank, n: cfg.N, timeout: timeout, ln: ln,
		peers:   make([]*tcpPeer, cfg.N),
		arrive:  make(chan struct{}, cfg.N-1),
		release: make(chan struct{}, 1),
	}
	t.box.init()
	t.registry = append([]string(nil), cfg.Peers...)
	t.advertise = cfg.Advertise
	return t, nil
}

// advertised is the address this rank tells peers to dial.
func (t *TCPTransport) advertised() string {
	if t.advertise != "" {
		return t.advertise
	}
	return t.Addr()
}

// Addr is this rank's bound listen address — rank 0's is the registry
// address the other ranks need.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

func (t *TCPTransport) Size() int { return t.n }
func (t *TCPTransport) Self() int { return t.rank }

// Establish runs the rendezvous and builds the connection mesh, then
// barriers so no rank returns before every rank is reachable.
func (t *TCPTransport) Establish() error {
	if t.n == 1 {
		return nil
	}
	table := make([]string, t.n)
	table[t.rank] = t.advertised()

	if t.rank == 0 {
		// Registry: accept every other rank's registration, record its
		// listen address, keep the connection as the rank-0 mesh link.
		for i := 0; i < t.n-1; i++ {
			c, h, payload, err := t.acceptHello()
			if err != nil {
				return err
			}
			r := int(h.Src)
			if r <= 0 || r >= t.n || t.peers[r] != nil {
				c.Close()
				return fmt.Errorf("comm: tcp registry: bad or duplicate registration from rank %d", r)
			}
			table[r] = string(payload)
			t.peers[r] = &tcpPeer{c: c}
		}
		blob := []byte(strings.Join(table, "\n"))
		for r := 1; r < t.n; r++ {
			if err := t.writeControl(r, kindTable, blob); err != nil {
				return err
			}
		}
	} else {
		// Register with rank 0 and receive the address table.
		c, err := t.dial(t.registry[0])
		if err != nil {
			return err
		}
		if err := t.writeHello(c); err != nil {
			c.Close()
			return err
		}
		h, payload, err := t.readHandshake(c)
		if err != nil {
			c.Close()
			return err
		}
		if h.Kind != kindTable {
			c.Close()
			return fmt.Errorf("comm: tcp rank %d: expected address table, got frame kind %d", t.rank, h.Kind)
		}
		got := strings.Split(string(payload), "\n")
		if len(got) != t.n {
			c.Close()
			return fmt.Errorf("comm: tcp rank %d: address table has %d entries, world size %d",
				t.rank, len(got), t.n)
		}
		copy(table, got)
		t.peers[0] = &tcpPeer{c: c}

		// Mesh among nonzero ranks: dial every lower rank, accept every
		// higher one.
		for j := 1; j < t.rank; j++ {
			cj, err := t.dial(table[j])
			if err != nil {
				return err
			}
			if err := t.writeHello(cj); err != nil {
				cj.Close()
				return err
			}
			t.peers[j] = &tcpPeer{c: cj}
		}
		for i := 0; i < t.n-1-t.rank; i++ {
			c, h, _, err := t.acceptHello()
			if err != nil {
				return err
			}
			r := int(h.Src)
			if r <= t.rank || r >= t.n || t.peers[r] != nil {
				c.Close()
				return fmt.Errorf("comm: tcp rank %d: bad or duplicate mesh hello from rank %d", t.rank, r)
			}
			t.peers[r] = &tcpPeer{c: c}
		}
	}

	for r, p := range t.peers {
		if p != nil {
			go t.readLoop(r, p)
		}
	}
	// No rank proceeds until every rank's mesh is complete, so the first
	// data frame can never race an unfinished Establish.
	return t.barrier()
}

// dial connects to a peer, retrying refused connections until the deadline
// — fleet processes start in arbitrary order, so a peer whose listener is
// not up yet is normal during rendezvous, not a failure.
func (t *TCPTransport) dial(addr string) (net.Conn, error) {
	var deadline time.Time
	if t.timeout > 0 {
		deadline = time.Now().Add(t.timeout)
	}
	for {
		d := net.Dialer{Timeout: t.timeout}
		if !deadline.IsZero() {
			d.Deadline = deadline
		}
		c, err := d.Dial("tcp", addr)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return c, nil
		}
		if !deadline.IsZero() && time.Now().Add(100*time.Millisecond).After(deadline) {
			return nil, fmt.Errorf("comm: tcp rank %d dial %s: %w (%v)", t.rank, addr, ErrTimeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// acceptHello accepts one connection and reads its hello frame.
func (t *TCPTransport) acceptHello() (net.Conn, frameHeader, []byte, error) {
	if t.timeout > 0 {
		if tl, ok := t.ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Now().Add(t.timeout))
		}
	}
	c, err := t.ln.Accept()
	if err != nil {
		return nil, frameHeader{}, nil, fmt.Errorf("comm: tcp rank %d accept: %w", t.rank, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	h, payload, err := t.readHandshake(c)
	if err != nil {
		c.Close()
		return nil, frameHeader{}, nil, err
	}
	if h.Kind != kindHello {
		c.Close()
		return nil, frameHeader{}, nil, fmt.Errorf("comm: tcp rank %d: expected hello, got frame kind %d", t.rank, h.Kind)
	}
	return c, h, payload, nil
}

func (t *TCPTransport) writeHello(c net.Conn) error {
	if t.timeout > 0 {
		c.SetWriteDeadline(time.Now().Add(t.timeout))
		defer c.SetWriteDeadline(time.Time{})
	}
	buf := appendControlFrame(nil, kindHello, t.rank, 0, []byte(t.advertised()))
	_, err := c.Write(buf)
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d hello: %w", t.rank, err)
	}
	return nil
}

// readHandshake reads one frame with the deadline applied, then clears it
// (steady-state reads run without one — an idle epoch is not a failure).
func (t *TCPTransport) readHandshake(c net.Conn) (frameHeader, []byte, error) {
	if t.timeout > 0 {
		c.SetReadDeadline(time.Now().Add(t.timeout))
		defer c.SetReadDeadline(time.Time{})
	}
	h, _, payload, err := readFrame(c, new([frameHeaderSize]byte))
	if err != nil {
		return h, payload, fmt.Errorf("comm: tcp rank %d handshake: %w", t.rank, err)
	}
	return h, payload, nil
}

// readLoop demultiplexes inbound frames from one peer: data into the
// mailbox, barrier traffic onto the coordinator channels. A read error
// outside Close marks the whole fabric failed, waking every blocked Recv.
func (t *TCPTransport) readLoop(src int, p *tcpPeer) {
	br := bufio.NewReaderSize(p.c, 1<<16)
	hdr := new([frameHeaderSize]byte)
	for {
		h, env, _, err := readFrame(br, hdr)
		if err != nil {
			if !t.closed.Load() {
				t.box.failSrc(src, fmt.Errorf("comm: tcp rank %d: connection to rank %d failed: %w (%v)",
					t.rank, src, ErrClosed, err))
			}
			return
		}
		switch h.Kind {
		case kindData:
			t.net.countRecv(envelopePayloadBytes(env))
			t.box.push(msgKey{src: int(h.Src), dst: t.rank, tag: int(h.Tag)}, env)
		case kindBarrier:
			t.arrive <- struct{}{}
		case kindRelease:
			t.release <- struct{}{}
		default:
			t.box.failSrc(src, fmt.Errorf("comm: tcp rank %d: unexpected frame kind %d from rank %d: %w",
				t.rank, h.Kind, src, ErrClosed))
			return
		}
	}
}

func (t *TCPTransport) writeControl(to int, kind byte, payload []byte) error {
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.timeout > 0 {
		p.c.SetWriteDeadline(time.Now().Add(t.timeout))
	}
	p.scratch = appendControlFrame(p.scratch[:0], kind, t.rank, to, payload)
	_, err := p.c.Write(p.scratch)
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d send to rank %d: %w", t.rank, to, err)
	}
	return nil
}

// Send frames env and writes it on the connection to rank `to` — the
// envelope is fully serialized before Send returns. Self-sends loop back
// through the mailbox without touching the network.
func (t *TCPTransport) Send(from, to int, env *Envelope) error {
	if from != t.rank {
		return fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot send as rank %d", t.rank, from)
	}
	if to < 0 || to >= t.n {
		return fmt.Errorf("comm: tcp send to rank %d outside world of %d", to, t.n)
	}
	if t.closed.Load() {
		return ErrClosed
	}
	if to == t.rank {
		n := envelopePayloadBytes(env)
		t.net.countSend(env.Tag, n)
		t.net.countRecv(n)
		t.box.push(msgKey{src: from, dst: to, tag: env.Tag}, env)
		return nil
	}
	// Reject oversized payloads at the sender with a clear error — the
	// alternative is the receiver tearing the peer link down with a
	// misleading "connection failed" long after the bytes left.
	plen := 4 * len(env.F32)
	if env.Prec != quant.FP32 {
		plen = 2 * len(env.U16)
	}
	if plen > int(maxFramePayload) {
		return fmt.Errorf("comm: tcp rank %d: payload of %d bytes to rank %d exceeds the %d-byte frame limit — split the transfer",
			t.rank, plen, to, maxFramePayload)
	}
	p := t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	if t.timeout > 0 {
		p.c.SetWriteDeadline(time.Now().Add(t.timeout))
	}
	p.scratch = appendDataFrame(p.scratch[:0], from, to, env)
	_, err := p.c.Write(p.scratch)
	if err != nil {
		return fmt.Errorf("comm: tcp rank %d send to rank %d: %w", t.rank, to, err)
	}
	t.net.countSend(env.Tag, envelopePayloadBytes(env))
	return nil
}

// Recv blocks for the next envelope from rank `from` with tag, up to the
// configured deadline.
func (t *TCPTransport) Recv(to, from, tag int) (*Envelope, error) {
	if to != t.rank {
		return nil, fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot receive as rank %d", t.rank, to)
	}
	return t.box.recv(msgKey{src: from, dst: to, tag: tag}, t.timeout)
}

// Poll peeks without consuming.
func (t *TCPTransport) Poll(to, from, tag int) (*Envelope, bool, error) {
	if to != t.rank {
		return nil, false, fmt.Errorf("comm: tcp endpoint hosts rank %d, cannot poll as rank %d", t.rank, to)
	}
	return t.box.poll(msgKey{src: from, dst: to, tag: tag})
}

// barrier blocks until all N ranks have reached it, coordinated through
// rank 0. It runs once, as the last step of Establish.
func (t *TCPTransport) barrier() error {
	if t.n == 1 {
		return nil
	}
	if t.rank == 0 {
		for need := t.n - 1; need > 0; need-- {
			if err := t.awaitBarrier(t.arrive); err != nil {
				return err
			}
		}
		for r := 1; r < t.n; r++ {
			if err := t.writeControl(r, kindRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := t.writeControl(0, kindBarrier, nil); err != nil {
		return err
	}
	return t.awaitBarrier(t.release)
}

func (t *TCPTransport) awaitBarrier(ch chan struct{}) error {
	var timeoutCh <-chan time.Time
	if t.timeout > 0 {
		timer := time.NewTimer(t.timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-ch:
		return nil
	case <-timeoutCh:
		return fmt.Errorf("comm: tcp rank %d barrier timed out after %v: %w",
			t.rank, t.timeout, ErrTimeout)
	}
}

// Close tears the fabric down: the listener and every connection close,
// reader goroutines exit, and blocked receives fail with ErrClosed.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(func() {
		t.closed.Store(true)
		t.ln.Close()
		for _, p := range t.peers {
			if p != nil {
				p.c.Close()
			}
		}
		t.box.fail(ErrClosed)
	})
	return nil
}

// NewLoopbackTCP builds an established n-rank TCP fabric over loopback
// inside one process — each endpoint driven from its own goroutine exactly
// as n separate OS processes would drive theirs. Tests and the
// abl-transport benchmark use it (often through train.DistributedFleet);
// real deployments construct one NewTCPTransport per process instead.
func NewLoopbackTCP(n int, timeout time.Duration) ([]Transport, error) {
	eps := make([]*TCPTransport, n)
	t0, err := NewTCPTransport(TCPConfig{Rank: 0, N: n, Timeout: timeout})
	if err != nil {
		return nil, err
	}
	eps[0] = t0
	for r := 1; r < n; r++ {
		eps[r], err = NewTCPTransport(TCPConfig{
			Rank: r, N: n, Peers: []string{t0.Addr()}, Timeout: timeout,
		})
		if err != nil {
			for _, e := range eps {
				if e != nil {
					e.Close()
				}
			}
			return nil, err
		}
	}
	errs := make([]error, n)
	var g parallel.Group
	for r := range eps {
		r := r
		g.Go(func() { errs[r] = eps[r].Establish() })
	}
	g.Wait()
	for r, e := range errs {
		if e != nil {
			for _, ep := range eps {
				ep.Close()
			}
			return nil, fmt.Errorf("comm: loopback rank %d: %w", r, e)
		}
	}
	out := make([]Transport, n)
	for r, ep := range eps {
		out[r] = ep
	}
	return out, nil
}
