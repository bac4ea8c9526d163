package transport

import (
	"context"
	"sync/atomic"

	"optimus/internal/shard"
)

// Loopback is the in-process transport: its dialer boots a Handler from the
// shipped section and connects a Client to it through a metered conn, so
// every coordinator↔worker call round-trips the full encode/decode wire path
// without a socket. It exists to pin the wire path's semantics — the
// equivalence matrix proves loopback-backed Sharded answers entry-for-entry
// identical to direct execution — and to measure its overhead (bytes and
// calls per query) before any real network is written.
//
// Wrap, when set, interposes on each dialed conn — the hook fault-injecting
// wrappers (internal/faulty) use to script drops, delays, corruption, and
// duplication deterministically. Set it before the first dial and leave it;
// the field itself is not synchronized.
type Loopback struct {
	Wrap func(shard int, c Conn) Conn

	dials         atomic.Int64
	calls         atomic.Int64
	bytesSent     atomic.Int64
	bytesReceived atomic.Int64
}

// NewLoopback returns a fresh loopback transport.
func NewLoopback() *Loopback { return &Loopback{} }

// Dialer returns the shard.WorkerDialer that routes a Sharded instance's
// shards through this transport. Assign it to Config.WorkerDialer before
// Build or Load; revival re-dials through it too, so a quarantined shard's
// replacement worker also lives behind the wire.
func (l *Loopback) Dialer() shard.WorkerDialer {
	return func(si int, section []byte) (shard.Worker, error) {
		h, err := NewHandler(section)
		if err != nil {
			return nil, err
		}
		l.dials.Add(1)
		var c Conn = &meteredConn{l: l, inner: h}
		if l.Wrap != nil {
			c = l.Wrap(si, c)
		}
		return NewClient(c)
	}
}

// Stats is a point-in-time snapshot of loopback traffic. BytesSent counts
// request frames (op byte included), BytesReceived reply frames — the
// meter behind the benchmark's transport.bytes_per_user row.
type Stats struct {
	Dials         int64
	Calls         int64
	BytesSent     int64
	BytesReceived int64
}

// Stats reads the traffic counters.
func (l *Loopback) Stats() Stats {
	return Stats{
		Dials:         l.dials.Load(),
		Calls:         l.calls.Load(),
		BytesSent:     l.bytesSent.Load(),
		BytesReceived: l.bytesReceived.Load(),
	}
}

// meteredConn is the loopback wire: it refuses exchanges whose context is
// already dead (a real socket write would fail the same way) and meters
// traffic in both directions.
type meteredConn struct {
	l     *Loopback
	inner *Handler
}

func (m *meteredConn) Call(ctx context.Context, op Op, req []byte) ([]byte, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	m.l.calls.Add(1)
	m.l.bytesSent.Add(int64(1 + len(req)))
	reply, err := m.inner.Call(ctx, op, req)
	if err != nil {
		return nil, err
	}
	m.l.bytesReceived.Add(int64(len(reply)))
	return reply, nil
}

func (m *meteredConn) Close() error { return m.inner.Close() }
