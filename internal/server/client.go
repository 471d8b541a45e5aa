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
	c := &Client{conn: conn}
	c.enc = proto.AppendHello(c.enc[:0], proto.Hello{Version: proto.Version, Tenant: tenant})
	if err := proto.WriteFrame(conn, proto.TypeHello, c.enc); err != nil {
		return nil, err
	}
	typ, payload, buf, err := proto.ReadFrame(conn, c.buf)
	if err != nil {
		return nil, err
	}
	c.buf = buf
	if typ == proto.TypeError {
		m, _ := proto.ParseError(payload)
		return nil, fmt.Errorf("server: %s", m.Err)
	}
	if typ != proto.TypeHelloAck {
		return nil, fmt.Errorf("server: unexpected handshake frame %#x", typ)
	}
	ack, err := proto.ParseHelloAck(payload)
	if err != nil {
		return nil, err
	}
	if ack.Err != "" {
		return nil, fmt.Errorf("server: %s", ack.Err)
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one frame and reads the response, translating an
// in-band Error frame (which the server follows with a close).
func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := proto.WriteFrame(c.conn, typ, payload); err != nil {
		return 0, nil, err
	}
	rtyp, rp, buf, err := proto.ReadFrame(c.conn, c.buf)
	if err != nil {
		return 0, nil, err
	}
	c.buf = buf
	if rtyp == proto.TypeError {
		m, _ := proto.ParseError(rp)
		return 0, nil, fmt.Errorf("server: %s", m.Err)
	}
	return rtyp, rp, nil
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
	typ, payload, err := c.roundTrip(proto.TypeIngest, enc)
	if err != nil {
		return proto.IngestAck{}, err
	}
	if typ != proto.TypeIngestAck {
		return proto.IngestAck{}, fmt.Errorf("server: unexpected frame %#x", typ)
	}
	ack, err := proto.ParseIngestAck(payload)
	if err != nil {
		return proto.IngestAck{}, err
	}
	if ack.Seq != c.seq {
		return proto.IngestAck{}, fmt.Errorf("server: ack seq %d, want %d", ack.Seq, c.seq)
	}
	return ack, nil
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
	typ, payload, err := c.roundTrip(proto.TypeSync, c.enc)
	if err != nil {
		return err
	}
	if typ != proto.TypeSyncAck {
		return fmt.Errorf("server: unexpected frame %#x", typ)
	}
	ack, err := proto.ParseSyncAck(payload)
	if err != nil {
		return err
	}
	if ack.Seq != c.seq {
		return fmt.Errorf("server: ack seq %d, want %d", ack.Seq, c.seq)
	}
	if ack.Err != "" {
		return fmt.Errorf("server: %s", ack.Err)
	}
	return nil
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
	typ, payload, err := c.roundTrip(reqType, c.enc)
	if err != nil {
		return nil, err
	}
	if typ != proto.TypeQueryResp {
		return nil, fmt.Errorf("server: unexpected frame %#x", typ)
	}
	resp, err := proto.ParseQueryResp(payload)
	if err != nil {
		return nil, err
	}
	if resp.Seq != c.seq {
		return nil, fmt.Errorf("server: resp seq %d, want %d", resp.Seq, c.seq)
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("server: %s", resp.Err)
	}
	return resp.Records, nil
}
