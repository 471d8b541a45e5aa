package server

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// ErrDegraded reports a degraded ack from the server: its engine is in
// read-only mode after a terminal persist failure (full disk, corrupt
// log). Ingest is suspended — resending is futile until the operator
// clears the fault and the engine heals — but queries keep answering.
// Match with errors.Is on IngestAll's error.
var ErrDegraded = errors.New("server: backend degraded, ingest suspended")

// Client is a synchronous bqsd protocol client: one request in flight
// at a time, not safe for concurrent use. A device's fixes must flow
// through a single client (the engine orders a device's stream by
// arrival), but many clients may serve disjoint device sets.
type Client struct {
	conn net.Conn
	buf  []byte // frame read buffer, recycled across calls
	enc  []byte // frame write buffer, recycled across calls
	seq  uint64
	// Sleep substitutes the retry-after wait in IngestAll; nil means
	// time.Sleep. Tests compress it.
	Sleep func(time.Duration)
}

// Dial connects to a bqsd server and binds the connection to tenant.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, tenant)
	if err != nil {
		_ = conn.Close() // handshake failed; the Hello error is the story
		return nil, err
	}
	return c, nil
}

// NewClient performs the Hello handshake on an established connection.
// On error the connection is left to the caller to close.
func NewClient(conn net.Conn, tenant string) (*Client, error) {
	c := &Client{conn: conn, enc: proto.AppendHello(nil, proto.Hello{Version: proto.Version, Tenant: tenant})}
	// A HelloAck carries no seq; c.seq is 0 until the first request.
	ack, err := exchange(c, proto.TypeHello, proto.TypeHelloAck, proto.ParseHelloAck, func(proto.HelloAck) uint64 { return 0 })
	if err == nil && ack.Err != "" {
		err = fmt.Errorf("server: %s", ack.Err)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// exchange sends c.enc as a typ frame and parses the answer, which must be
// a want frame whose Seq (read by seq) is c.seq. An in-band Error frame,
// which the server follows with a close, is returned as the error.
func exchange[T any](c *Client, typ, want byte, parse func([]byte) (T, error), seq func(T) uint64) (m T, err error) {
	if err = proto.WriteFrame(c.conn, typ, c.enc); err != nil {
		return m, err
	}
	rtyp, payload, buf, err := proto.ReadFrame(c.conn, c.buf)
	if err != nil {
		return m, err
	}
	c.buf = buf
	if rtyp == proto.TypeError {
		e, _ := proto.ParseError(payload)
		return m, fmt.Errorf("server: %s", e.Err)
	}
	if rtyp != want {
		return m, fmt.Errorf("server: unexpected frame %#x", rtyp)
	}
	if m, err = parse(payload); err == nil && seq(m) != c.seq {
		err = fmt.Errorf("server: reply seq %d, want %d", seq(m), c.seq)
	}
	return m, err
}

// Ingest sends one batch frame and returns the server's ack verbatim;
// the caller owns retrying rejected batches. An ack whose Err is set is
// returned with a nil error — fixes may still have been accepted, and
// the caller decides whether a sick backend stops the stream.
func (c *Client) Ingest(batches []proto.DeviceBatch) (proto.IngestAck, error) {
	c.seq++
	enc, err := proto.AppendIngest(c.enc[:0], proto.Ingest{Seq: c.seq, Batches: batches})
	if err != nil {
		return proto.IngestAck{}, err
	}
	c.enc = enc
	return exchange(c, proto.TypeIngest, proto.TypeIngestAck, proto.ParseIngestAck, func(a proto.IngestAck) uint64 { return a.Seq })
}

// IngestAll sends batches and keeps resending backpressure-rejected
// ones, honoring the server's retry-after hint, until everything is
// accepted, the server reports a backend error, or maxRetries rounds
// of rejection pass. A degraded ack (the server's engine is in
// read-only mode — see engine.ErrDegraded) stops the resend loop
// immediately with an error matching ErrDegraded: retrying cannot
// succeed until the operator clears the fault. It returns the total
// fixes accepted.
func (c *Client) IngestAll(batches []proto.DeviceBatch, maxRetries int) (accepted uint64, err error) {
	if maxRetries <= 0 {
		maxRetries = 100
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	pending := batches
	for round := 0; ; round++ {
		ack, err := c.Ingest(pending)
		if err != nil {
			return accepted, err
		}
		accepted += ack.Accepted
		if ack.Degraded {
			return accepted, fmt.Errorf("%w: %s", ErrDegraded, ack.Err)
		}
		if ack.Err != "" {
			return accepted, fmt.Errorf("server: %s", ack.Err)
		}
		if len(ack.Rejected) == 0 {
			return accepted, nil
		}
		if round+1 >= maxRetries {
			return accepted, fmt.Errorf("server: %d batches still rejected after %d rounds", len(ack.Rejected), maxRetries)
		}
		retry := make([]proto.DeviceBatch, 0, len(ack.Rejected))
		for _, idx := range ack.Rejected {
			if int(idx) >= len(pending) {
				return accepted, errors.New("server: rejected index out of range")
			}
			retry = append(retry, pending[idx])
		}
		pending = retry
		sleep(time.Duration(ack.RetryAfterMillis) * time.Millisecond)
	}
}

// Sync runs the durability barrier; with flush, open compression
// sessions are cut first so everything ingested becomes durable, at the
// cost of at most one key point a device (proto.Sync has the contract).
func (c *Client) Sync(flush bool) error {
	c.seq++
	c.enc = proto.AppendSync(c.enc[:0], proto.Sync{Seq: c.seq, Flush: flush})
	ack, err := exchange(c, proto.TypeSync, proto.TypeSyncAck, proto.ParseSyncAck, func(a proto.SyncAck) uint64 { return a.Seq })
	if err == nil && ack.Err != "" {
		err = fmt.Errorf("server: %s", ack.Err)
	}
	return err
}

// QueryWindow returns every stored record and un-flushed trail (see
// proto.Sync) with a segment intersecting the window: [minLon, maxLon] x
// [minLat, maxLat] degrees, [t0, t1] seconds.
func (c *Client) QueryWindow(minLon, minLat, maxLon, maxLat float64, t0, t1 uint32) ([]trajstore.PersistedRecord, error) {
	c.seq++
	c.enc = proto.AppendQueryWindow(c.enc[:0], proto.QueryWindow{
		Seq: c.seq, MinLon: minLon, MinLat: minLat, MaxLon: maxLon, MaxLat: maxLat, T0: t0, T1: t1,
	})
	return c.queryResp(proto.TypeQueryWindow)
}

// QueryTime returns one device's stored records, then its un-flushed
// trails, overlapping [t0, t1].
func (c *Client) QueryTime(device string, t0, t1 uint32) ([]trajstore.PersistedRecord, error) {
	c.seq++
	c.enc = proto.AppendQueryTime(c.enc[:0], proto.QueryTime{Seq: c.seq, Device: device, T0: t0, T1: t1})
	return c.queryResp(proto.TypeQueryTime)
}

func (c *Client) queryResp(reqType byte) ([]trajstore.PersistedRecord, error) {
	resp, err := exchange(c, reqType, proto.TypeQueryResp, proto.ParseQueryResp, func(r proto.QueryResp) uint64 { return r.Seq })
	if err == nil && resp.Err != "" {
		err = fmt.Errorf("server: %s", resp.Err)
	}
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}
