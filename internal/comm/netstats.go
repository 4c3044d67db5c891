package comm

import "sync/atomic"

// netstats.go is the transport-level byte accounting the observability
// plane reads: both fabrics count messages and payload bytes per
// direction, with sent bytes further attributed to the tag plane they
// rode — collectives (negative tags), training p2p (small non-negative
// tags), or the serving request/reply range (≥ ServeTagBase). Payload
// bytes (4·len(F32) + 2·len(U16)) are counted rather than wire bytes so
// the two fabrics report comparable numbers; TCP framing overhead is a
// fixed 28-byte header per message on top (frame.go).

// TransportStats is a snapshot of one endpoint's traffic counters.
type TransportStats struct {
	SentMsgs  int64 `json:"sent_msgs"`
	RecvMsgs  int64 `json:"recv_msgs"`
	SentBytes int64 `json:"sent_bytes"`
	RecvBytes int64 `json:"recv_bytes"`
	// Sent payload bytes attributed by tag plane.
	CollectiveBytes int64 `json:"collective_bytes"`
	P2PBytes        int64 `json:"p2p_bytes"`
	ServeBytes      int64 `json:"serve_bytes"`
}

// NetStatsSource is implemented by transports that count traffic; both
// in-tree fabrics do. Callers type-assert because Transport predates the
// counters and third-party fabrics may not carry them.
type NetStatsSource interface {
	NetStats() TransportStats
}

// netCounters is the shared atomic counter block.
type netCounters struct {
	sentMsgs, recvMsgs   atomic.Int64
	sentBytes, recvBytes atomic.Int64
	collB, p2pB, serveB  atomic.Int64
}

// envelopePayloadBytes is the fabric-independent payload size.
func envelopePayloadBytes(env *Envelope) int64 {
	return int64(4*len(env.F32) + 2*len(env.U16))
}

func (c *netCounters) countSend(tag int, n int64) {
	c.sentMsgs.Add(1)
	c.sentBytes.Add(n)
	switch {
	case tag < 0:
		c.collB.Add(n)
	case tag >= ServeTagBase:
		c.serveB.Add(n)
	default:
		c.p2pB.Add(n)
	}
}

func (c *netCounters) countRecv(n int64) {
	c.recvMsgs.Add(1)
	c.recvBytes.Add(n)
}

func (c *netCounters) stats() TransportStats {
	return TransportStats{
		SentMsgs:        c.sentMsgs.Load(),
		RecvMsgs:        c.recvMsgs.Load(),
		SentBytes:       c.sentBytes.Load(),
		RecvBytes:       c.recvBytes.Load(),
		CollectiveBytes: c.collB.Load(),
		P2PBytes:        c.p2pB.Load(),
		ServeBytes:      c.serveB.Load(),
	}
}
