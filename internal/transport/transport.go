// Package transport puts the shard.Worker contract on a wire. Every call is
// one request/reply exchange over a Conn: a single op byte, a request body
// framed with the internal/persist section primitives (little-endian
// integers, count-prefixed slices, OMXA matrices), and a reply whose first
// byte is a status code followed by an op-specific payload. Ranked result
// rows ride the internal/topk entry codec, so a decoded ranking is
// bit-for-bit the ranking the worker produced.
//
// The two halves are Client — wraps a Conn as a shard.Worker the coordinator
// fans out to — and Handler — boots a worker from a shipped persist section
// (persist.LoadAny) and serves its contract as a Conn. The loopback
// transport (loopback.go) joins them in-process so the entire wire path is
// exercised, and pinned entry-for-entry against direct execution, before any
// real network exists.
//
// Error fidelity is part of the contract: context sentinel errors cross the
// wire as dedicated status codes and are rehydrated to the canonical values,
// so the coordinator's containment policy (deadline/cancel pass through,
// anything else quarantines) behaves identically for remote and in-process
// workers. Unknown status bytes are rejected outright — a corrupt frame
// becomes an error, never a silently wrong answer.
package transport

import (
	"context"
	"errors"
	"fmt"

	"optimus/internal/mat"
	"optimus/internal/mips"
	"optimus/internal/persist"
	"optimus/internal/shard"
	"optimus/internal/topk"
)

// Op identifies one Worker-contract call on the wire. It is a plain byte
// alias so fault-injecting wrappers (internal/faulty) can speak the protocol
// structurally without importing this package.
type Op = byte

// Wire ops, one per Worker method. Values are part of the wire format.
const (
	OpQuery Op = 1 + iota
	OpAddItems
	OpRemoveItems
	OpAddUsers
	OpSnapshot
	OpScanStats
	OpResetScanStats
	OpSetThreads
	OpCaps
	OpClose
)

// Reply status codes (first reply byte). Part of the wire format.
const (
	statusOK       = 0 // payload follows
	statusErr      = 1 // length-prefixed error string follows
	statusCanceled = 2 // rehydrates to context.Canceled
	statusDeadline = 3 // rehydrates to context.DeadlineExceeded
)

// Conn is one established connection to a worker: a blocking request/reply
// exchange plus teardown. Call returns the raw reply frame; a non-nil error
// means the exchange itself failed (the wire, not the worker), which the
// coordinator treats like any other shard failure. Implementations must
// honor ctx for the duration of the exchange.
type Conn interface {
	Call(ctx context.Context, op Op, req []byte) ([]byte, error)
	Close() error
}

// capsBits packs a capability word's flags into one wire byte. The caps
// reply carries that byte and then the item count the worker booted with
// (WorkerCaps.Items, 0 when not Sized) as a persist Int — the count the
// coordinator checks against its manifest without decoding the section
// itself.
func capsBits(c shard.WorkerCaps) byte {
	var b byte
	set := func(bit uint, on bool) {
		if on {
			b |= 1 << bit
		}
	}
	set(0, c.Batches)
	set(1, c.Mutable)
	set(2, c.UserAdds)
	set(3, c.Scans)
	set(4, c.Snapshots)
	set(5, c.Sized)
	return b
}

func capsFromBits(b byte) shard.WorkerCaps {
	return shard.WorkerCaps{
		Batches:   b&(1<<0) != 0,
		Mutable:   b&(1<<1) != 0,
		UserAdds:  b&(1<<2) != 0,
		Scans:     b&(1<<3) != 0,
		Snapshots: b&(1<<4) != 0,
		Sized:     b&(1<<5) != 0,
	}
}

// Handler hosts one worker on the far side of a wire: it boots the worker by
// persist.LoadAny-ing a shipped shard section and serves the Worker contract
// as a Conn. Shipping a shard IS sending its manifest section — the handler
// needs nothing else.
type Handler struct {
	w shard.Worker
}

// NewHandler boots a worker from a self-describing persist section. The
// section's solver kind must be registered (importing the root optimus
// package registers all repository kinds).
func NewHandler(section []byte) (*Handler, error) {
	ls, err := persist.LoadAny(persist.FromBytes(section))
	if err != nil {
		return nil, fmt.Errorf("transport: booting worker: %w", err)
	}
	solver, ok := ls.(mips.Solver)
	if !ok {
		return nil, fmt.Errorf("transport: booting worker: section kind is not a solver")
	}
	return &Handler{w: shard.NewWorker(solver)}, nil
}

// Call implements Conn: decode the request, invoke the worker, encode the
// reply. Worker errors — including request decode failures — travel inside
// the reply frame as status codes; Call itself only fails when a wrapper
// (fault injection, a real socket) makes the exchange fail.
func (h *Handler) Call(ctx context.Context, op Op, req []byte) ([]byte, error) {
	switch op {
	case OpQuery:
		return h.query(ctx, req), nil
	case OpAddItems:
		d := persist.NewDecoder(req)
		items := d.Matrix()
		if err := d.Err(); err != nil {
			return errReply(err), nil
		}
		ids, err := h.w.AddItems(items)
		if err != nil {
			return errReply(err), nil
		}
		return okReply(func(e *persist.Encoder) { e.Ints(ids) }), nil
	case OpRemoveItems:
		d := persist.NewDecoder(req)
		local := d.Ints()
		if err := d.Err(); err != nil {
			return errReply(err), nil
		}
		if err := h.w.RemoveItems(local); err != nil {
			return errReply(err), nil
		}
		return []byte{statusOK}, nil
	case OpAddUsers:
		d := persist.NewDecoder(req)
		users := d.Matrix()
		if err := d.Err(); err != nil {
			return errReply(err), nil
		}
		ids, err := h.w.AddUsers(users)
		if err != nil {
			return errReply(err), nil
		}
		return okReply(func(e *persist.Encoder) { e.Ints(ids) }), nil
	case OpSnapshot:
		b, err := h.w.Snapshot()
		if err != nil {
			return errReply(err), nil
		}
		return okReply(func(e *persist.Encoder) { e.Bytes(b) }), nil
	case OpScanStats:
		st := h.w.ScanStats()
		return okReply(func(e *persist.Encoder) { e.U64(uint64(st.Scanned)) }), nil
	case OpResetScanStats:
		h.w.ResetScanStats()
		return []byte{statusOK}, nil
	case OpSetThreads:
		d := persist.NewDecoder(req)
		n := d.Int()
		if err := d.Err(); err != nil {
			return errReply(err), nil
		}
		h.w.SetThreads(n)
		return []byte{statusOK}, nil
	case OpCaps:
		c := h.w.Caps()
		return okReply(func(e *persist.Encoder) {
			e.U8(capsBits(c))
			e.Int(c.Items)
		}), nil
	case OpClose:
		if err := h.w.Close(); err != nil {
			return errReply(err), nil
		}
		return []byte{statusOK}, nil
	default:
		return errReply(fmt.Errorf("transport: unknown op %d", op)), nil
	}
}

func (h *Handler) query(ctx context.Context, req []byte) []byte {
	d := persist.NewDecoder(req)
	userIDs := d.Ints()
	k := d.Int()
	var floors []float64
	if has := d.U8(); has == 1 {
		floors = d.F64s()
	} else if has != 0 {
		return errReply(fmt.Errorf("transport: query floor flag %d invalid", has))
	}
	if err := d.Err(); err != nil {
		return errReply(err)
	}
	rows, err := h.w.Query(ctx, userIDs, k, floors, nil)
	if err != nil {
		return errReply(err)
	}
	return topk.AppendRows([]byte{statusOK}, rows)
}

// Close implements Conn.
func (h *Handler) Close() error { return h.w.Close() }

// errReply frames a worker-side error. Context sentinels get dedicated
// status codes so the client rehydrates the canonical values — a far-side
// deadline must never read as a generic failure (which would quarantine the
// shard for an error the caller caused).
func errReply(err error) []byte {
	switch {
	case errors.Is(err, context.Canceled):
		return []byte{statusCanceled}
	case errors.Is(err, context.DeadlineExceeded):
		return []byte{statusDeadline}
	}
	e := persist.NewEncoder()
	e.String(err.Error())
	body, encErr := e.Finish()
	if encErr != nil {
		body = nil
	}
	return append([]byte{statusErr}, body...)
}

// okReply frames a success payload built on a persist Encoder.
func okReply(fill func(*persist.Encoder)) []byte {
	e := persist.NewEncoder()
	fill(e)
	body, err := e.Finish()
	if err != nil {
		return errReply(err)
	}
	return append([]byte{statusOK}, body...)
}

// Client wraps a Conn as a shard.Worker: every contract call is encoded,
// exchanged, and decoded — there is no in-process shortcut, which is exactly
// what makes loopback a faithful rehearsal of a remote deployment. The
// worker-side capability word is fetched once at dial and cached.
type Client struct {
	conn Conn
	caps shard.WorkerCaps
}

// Compile-time check: Client is a shard.Worker.
var _ shard.Worker = (*Client)(nil)

// NewClient dials the capability word — flags and booted item count — and
// returns the wire-backed worker.
func NewClient(conn Conn) (*Client, error) {
	payload, err := roundTrip(conn, context.Background(), OpCaps, nil)
	if err != nil {
		return nil, fmt.Errorf("transport: fetching caps: %w", err)
	}
	d := persist.NewDecoder(payload)
	caps := capsFromBits(d.U8())
	caps.Items = d.Int()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("transport: decoding caps: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("transport: caps reply has %d trailing bytes", d.Remaining())
	}
	return &Client{conn: conn, caps: caps}, nil
}

// roundTrip performs one exchange and unwraps the reply status.
func roundTrip(conn Conn, ctx context.Context, op Op, req []byte) ([]byte, error) {
	reply, err := conn.Call(ctx, op, req)
	if err != nil {
		return nil, err
	}
	return decodeReply(reply)
}

// decodeReply validates the status byte and returns the payload. Unknown
// statuses are rejected: frame corruption surfaces as an error the
// coordinator's quarantine machinery handles, never as a wrong answer.
func decodeReply(reply []byte) ([]byte, error) {
	if len(reply) == 0 {
		return nil, fmt.Errorf("transport: empty reply frame")
	}
	switch reply[0] {
	case statusOK:
		return reply[1:], nil
	case statusErr:
		d := persist.NewDecoder(reply[1:])
		msg := d.String()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("transport: malformed error reply: %w", err)
		}
		return nil, fmt.Errorf("transport: remote: %s", msg)
	case statusCanceled:
		return nil, context.Canceled
	case statusDeadline:
		return nil, context.DeadlineExceeded
	default:
		return nil, fmt.Errorf("transport: unknown reply status %d", reply[0])
	}
}

// encode builds a request body, surfacing encoder errors.
func encode(fill func(*persist.Encoder)) ([]byte, error) {
	e := persist.NewEncoder()
	fill(e)
	return e.Finish()
}

// Query implements shard.Worker. A live board is snapshotted into static
// floors before encoding — the only floor form that crosses a wire.
func (c *Client) Query(ctx context.Context, userIDs []int, k int, floors []float64, board *topk.FloorBoard) ([][]topk.Entry, error) {
	if board != nil {
		floors = board.Snapshot()
	}
	req, err := encode(func(e *persist.Encoder) {
		e.Ints(userIDs)
		e.Int(k)
		if floors != nil {
			e.U8(1)
			e.F64s(floors)
		} else {
			e.U8(0)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("transport: encoding query: %w", err)
	}
	payload, err := roundTrip(c.conn, ctx, OpQuery, req)
	if err != nil {
		return nil, err
	}
	rows, used, err := topk.DecodeRows(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding query reply: %w", err)
	}
	if used != len(payload) {
		return nil, fmt.Errorf("transport: query reply has %d trailing bytes", len(payload)-used)
	}
	if len(rows) != len(userIDs) {
		return nil, fmt.Errorf("transport: query reply has %d rows for %d users", len(rows), len(userIDs))
	}
	return rows, nil
}

// AddItems implements shard.Worker.
func (c *Client) AddItems(items *mat.Matrix) ([]int, error) {
	req, err := encode(func(e *persist.Encoder) { e.Matrix(items) })
	if err != nil {
		return nil, fmt.Errorf("transport: encoding items: %w", err)
	}
	payload, err := roundTrip(c.conn, context.Background(), OpAddItems, req)
	if err != nil {
		return nil, err
	}
	return decodeIDs(payload)
}

// RemoveItems implements shard.Worker.
func (c *Client) RemoveItems(local []int) error {
	req, err := encode(func(e *persist.Encoder) { e.Ints(local) })
	if err != nil {
		return fmt.Errorf("transport: encoding removals: %w", err)
	}
	_, err = roundTrip(c.conn, context.Background(), OpRemoveItems, req)
	return err
}

// AddUsers implements shard.Worker.
func (c *Client) AddUsers(users *mat.Matrix) ([]int, error) {
	req, err := encode(func(e *persist.Encoder) { e.Matrix(users) })
	if err != nil {
		return nil, fmt.Errorf("transport: encoding users: %w", err)
	}
	payload, err := roundTrip(c.conn, context.Background(), OpAddUsers, req)
	if err != nil {
		return nil, err
	}
	return decodeIDs(payload)
}

func decodeIDs(payload []byte) ([]int, error) {
	d := persist.NewDecoder(payload)
	ids := d.Ints()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("transport: decoding ids: %w", err)
	}
	return ids, nil
}

// Snapshot implements shard.Worker: the worker serializes its own — possibly
// remote — state, so the manifest always records what the shard serves. The
// result is a view of the reply frame, which holds nothing but a status
// byte, a length and the snapshot, so keeping it pins only its own bytes.
func (c *Client) Snapshot() ([]byte, error) {
	payload, err := roundTrip(c.conn, context.Background(), OpSnapshot, nil)
	if err != nil {
		return nil, err
	}
	d := persist.NewDecoder(payload)
	b := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("transport: decoding snapshot: %w", err)
	}
	return b, nil
}

// ScanStats implements shard.Worker. Exchange failures read as a zero meter;
// the next query against the broken conn surfaces the real error.
func (c *Client) ScanStats() mips.ScanStats {
	payload, err := roundTrip(c.conn, context.Background(), OpScanStats, nil)
	if err != nil {
		return mips.ScanStats{}
	}
	d := persist.NewDecoder(payload)
	scanned := int64(d.U64())
	if d.Err() != nil {
		return mips.ScanStats{}
	}
	return mips.ScanStats{Scanned: scanned}
}

// ResetScanStats implements shard.Worker.
func (c *Client) ResetScanStats() {
	_, _ = roundTrip(c.conn, context.Background(), OpResetScanStats, nil)
}

// SetThreads implements shard.Worker. Best-effort: thread alignment is a
// performance hint, not a correctness requirement.
func (c *Client) SetThreads(n int) {
	if n < 0 {
		return
	}
	req, err := encode(func(e *persist.Encoder) { e.Int(n) })
	if err != nil {
		return
	}
	_, _ = roundTrip(c.conn, context.Background(), OpSetThreads, req)
}

// Caps implements shard.Worker, returning the word cached at dial.
func (c *Client) Caps() shard.WorkerCaps { return c.caps }

// Close implements shard.Worker: release the far side, then the conn.
func (c *Client) Close() error {
	_, _ = roundTrip(c.conn, context.Background(), OpClose, nil)
	return c.conn.Close()
}
