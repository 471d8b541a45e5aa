// Package proto defines bqsd's wire protocol: length-prefixed binary
// frames over a byte stream, reusing the storage layer's delta-varint
// idiom for trajectory payloads (trajstore.DeltaEncode — the same bytes
// the segment log persists, so a batch travels, lands on disk and is
// queried back in one representation; the daemon queues each Ingest batch
// as those bytes, see IngestFrame.Walk, and answers a query with the
// blocks its read visited, uncopied, see QueryRespWriter).
//
// Framing: every frame is a 4-byte little-endian length N (1 ≤ N ≤
// MaxFrame) followed by N bytes — a 1-byte frame type and the message
// payload. Integers inside payloads are unsigned/zig-zag varints,
// strings are length-prefixed, coordinates ride as delta-varint key
// blocks or (for query windows) IEEE-754 bits.
//
// A session is: client sends Hello naming a tenant, server answers
// HelloAck, then the client issues Ingest / Sync / QueryWindow /
// QueryTime requests and the server answers each in order (IngestAck /
// SyncAck / QueryResp). Requests carry a client-chosen Seq echoed in
// the response, so clients may pipeline. A frame the server cannot
// parse is answered with an Error frame and the connection is closed.
//
// Backpressure is explicit: an IngestAck reports which device batches
// were rejected because their shard queue was full, plus a retry-after
// hint in milliseconds. The server never buffers rejected fixes — the
// client owns the retry. A batch refused for good (the engine degraded
// after a terminal persist failure, or closed) is reported in the ack's
// Err field, so a streaming client learns the backend is sick without
// waiting for a Sync barrier.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// Version is the protocol version spoken by this package; Hello carries
// it and the server rejects mismatches.
const Version = 1

// MaxFrame caps a frame's body (type byte + payload). Large enough for
// an ingest batch of ~100k fixes or a fat query response; small enough
// that a malicious length prefix cannot balloon memory. It bounds a query
// answer too: the server stops a read at the record that takes the frame
// past it (QueryRespWriter.Block reports the size), so an answer holds at
// most MaxFrame of the blocks the read visited.
const MaxFrame = 4 << 20

// Frame types.
const (
	TypeHello       byte = 0x01 // client → server: version + tenant
	TypeHelloAck    byte = 0x02 // server → client: accept/reject
	TypeIngest      byte = 0x03 // client → server: per-device fix batches
	TypeIngestAck   byte = 0x04 // server → client: accepted/rejected + retry hint
	TypeSync        byte = 0x05 // client → server: durability barrier (optionally flush)
	TypeSyncAck     byte = 0x06 // server → client
	TypeQueryWindow byte = 0x07 // client → server: spatio-temporal window
	TypeQueryTime   byte = 0x08 // client → server: device + time range
	TypeQueryResp   byte = 0x09 // server → client: records
	TypeError       byte = 0x0A // server → client: fatal; connection closes
)

// ErrFrameTooBig reports a frame exceeding MaxFrame.
var ErrFrameTooBig = errors.New("proto: frame exceeds size cap")

// ErrMalformed reports a syntactically invalid frame payload.
var ErrMalformed = errors.New("proto: malformed frame")

// WriteFrame writes one frame. The payload must not include the type
// byte; WriteFrame prepends it.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	n := len(payload) + 1
	if n > MaxFrame {
		return ErrFrameTooBig
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough, and
// returns the frame type, the payload (aliasing the returned buffer —
// valid until the next ReadFrame on it) and the buffer to pass back in.
// io.EOF is returned verbatim on a clean end between frames; a frame
// cut off mid-body yields io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload []byte, bufOut []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 {
		return 0, nil, buf, ErrMalformed
	}
	if n > MaxFrame {
		return 0, nil, buf, ErrFrameTooBig
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	b := buf[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	return b[0], b[1:], buf, nil
}

// Hello opens a session and names the tenant whose engine and log the
// connection binds to.
type Hello struct {
	Version uint32
	Tenant  string
}

// HelloAck accepts (Err == "") or rejects a session.
type HelloAck struct {
	Version uint32
	Err     string
}

// DeviceBatch is one device's fixes within an Ingest frame, in arrival
// order. The engine routes a device to exactly one shard, so a batch is
// accepted or rejected as a unit.
type DeviceBatch struct {
	Device string
	Keys   []trajstore.GeoKey
}

// Ingest carries a batch of fixes grouped by device.
type Ingest struct {
	Seq     uint64
	Batches []DeviceBatch
}

// IngestFrame is an Ingest payload walked, not decoded (Walk).
type IngestFrame struct {
	Seq     uint64
	Batches []TrailBatch
}

// TrailBatch is one device's batch of an IngestFrame, its block in place.
type TrailBatch struct {
	Device string
	Trail  trajstore.Trail
}

// IngestAck answers an Ingest frame. Accepted counts fixes enqueued;
// Rejected lists the indices (into the request's Batches) refused by
// backpressure — resend those after RetryAfterMillis. Err says why a
// batch was refused for good (degraded or closed engine); it is empty
// whenever every batch was accepted or merely asked to retry. Degraded
// marks the engine's degraded read-only mode (terminal persist
// failure): the batch was rejected whole, resends are futile until the
// operator clears the fault and heals the engine, but queries keep
// answering — clients should stop resending rather than retry.
type IngestAck struct {
	Seq              uint64
	Accepted         uint64
	Rejected         []uint32
	RetryAfterMillis uint32
	Err              string
	Degraded         bool
}

// Sync requests the durability barrier. The service's contract is written
// down here, once:
//
//   - An ingest ack means queued, in memory: the fixes it counts are on
//     their device's shard queue, behind every fix acked before them.
//   - A query sees every key point emitted from fixes acked before it,
//     durable or not — stored records, then the trails no record holds yet
//     (open sessions', and those parked by degraded mode) — and waits its
//     turn in the shard queues to do so, as a Sync does. What a compressor
//     still holds back, the pending end of a segment, is not a key point yet.
//   - A Sync acked without Err means every fix acked before it is processed
//     and every record the log was handed is fsync'd. Key points still on a
//     session's trail (fewer than -trail) are not in the log, so not durable.
//   - With Flush every open session is cut first: its compressor emits the
//     pending end, its trail goes to the log, and the device's trajectory
//     continues from that key point: a flush costs at most one key point per
//     device and compaction re-joins the records. After it, everything acked
//     before is durable.
//   - A SIGKILL may lose what memory alone holds: bqs_trail_bytes plus
//     bqs_log_unsynced_bytes on /metrics, and the fixes still queued.
type Sync struct {
	Seq   uint64
	Flush bool
}

// SyncAck answers Sync; Err carries the barrier failure, if any.
type SyncAck struct {
	Seq uint64
	Err string
}

// QueryWindow asks for every run of key points — stored record or
// un-flushed trail, see Sync — with a trajectory segment intersecting
// [MinLon, MaxLon] × [MinLat, MaxLat] (degrees) during [T0, T1] (seconds).
type QueryWindow struct {
	Seq            uint64
	MinLon, MinLat float64
	MaxLon, MaxLat float64
	T0, T1         uint32
}

// QueryTime asks for one device's runs of key points — stored records,
// then un-flushed trails, see Sync — overlapping [T0, T1], oldest first.
type QueryTime struct {
	Seq    uint64
	Device string
	T0, T1 uint32
}

// QueryResp answers QueryWindow/QueryTime.
type QueryResp struct {
	Seq     uint64
	Records []trajstore.PersistedRecord
	Err     string
}

// ErrorMsg is the fatal server response to an unparseable or
// unexpected frame; the server closes the connection after sending it.
type ErrorMsg struct {
	Err string
}

// ---- encoding ----

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendKeyBlock appends keys' delta-varint block, encoded straight into
// dst, then shifts it to make room for its length prefix.
func appendKeyBlock(dst []byte, keys []trajstore.GeoKey) ([]byte, error) {
	start := len(dst)
	dst, err := trajstore.AppendDelta(dst, keys)
	if err != nil {
		return nil, err
	}
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(len(dst)-start))
	dst = append(dst, pre[:w]...)
	copy(dst[start+w:], dst[start:])
	copy(dst[start:], pre[:w])
	return dst, nil
}

// AppendHello appends h's payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Version))
	return appendString(dst, h.Tenant)
}

// AppendHelloAck appends a's payload to dst.
func AppendHelloAck(dst []byte, a HelloAck) []byte {
	dst = binary.AppendUvarint(dst, uint64(a.Version))
	return appendString(dst, a.Err)
}

// AppendIngest appends m's payload to dst. Keys outside the wire
// format's coordinate range fail with trajstore.ErrRange.
func AppendIngest(dst []byte, m Ingest) ([]byte, error) {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(m.Batches)))
	for _, b := range m.Batches {
		var err error
		if dst, err = appendKeyBlock(appendString(dst, b.Device), b.Keys); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// AppendIngestAck appends a's payload to dst.
func AppendIngestAck(dst []byte, a IngestAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	dst = binary.AppendUvarint(dst, a.Accepted)
	dst = binary.AppendUvarint(dst, uint64(len(a.Rejected)))
	for _, r := range a.Rejected {
		dst = binary.AppendUvarint(dst, uint64(r))
	}
	dst = binary.AppendUvarint(dst, uint64(a.RetryAfterMillis))
	dst = appendString(dst, a.Err)
	degraded := byte(0)
	if a.Degraded {
		degraded = 1
	}
	return append(dst, degraded)
}

// AppendSync appends m's payload to dst.
func AppendSync(dst []byte, m Sync) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	flush := byte(0)
	if m.Flush {
		flush = 1
	}
	return append(dst, flush)
}

// AppendSyncAck appends a's payload to dst.
func AppendSyncAck(dst []byte, a SyncAck) []byte {
	dst = binary.AppendUvarint(dst, a.Seq)
	return appendString(dst, a.Err)
}

// AppendQueryWindow appends m's payload to dst.
func AppendQueryWindow(dst []byte, m QueryWindow) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	for _, f := range [4]float64{m.MinLon, m.MinLat, m.MaxLon, m.MaxLat} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	dst = binary.AppendUvarint(dst, uint64(m.T0))
	dst = binary.AppendUvarint(dst, uint64(m.T1))
	return dst
}

// AppendQueryTime appends m's payload to dst.
func AppendQueryTime(dst []byte, m QueryTime) []byte {
	dst = binary.AppendUvarint(dst, m.Seq)
	dst = appendString(dst, m.Device)
	dst = binary.AppendUvarint(dst, uint64(m.T0))
	dst = binary.AppendUvarint(dst, uint64(m.T1))
	return dst
}

// appendHead appends a QueryResp record's head up to its block's length:
// device, t0, t1. AppendQueryResp and QueryRespWriter both write it here.
func appendHead(dst []byte, device string, t0, t1 uint32) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(appendString(dst, device), uint64(t0)), uint64(t1))
}

// AppendQueryResp appends m's payload to dst.
func AppendQueryResp(dst []byte, m QueryResp) ([]byte, error) {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, m.Seq), uint64(len(m.Records)))
	for _, r := range m.Records {
		var err error
		if dst, err = appendKeyBlock(appendHead(dst, r.Device, r.T0, r.T1), r.Keys); err != nil {
			return nil, err
		}
	}
	return appendString(dst, m.Err), nil
}

// QueryRespWriter writes a QueryResp frame around key blocks it never
// copies — the stored bytes a read hands over, which must stay unchanged
// until WriteTo, as trajstore.Block promises. Block encodes a record's head
// (device, t0, t1, block length); WriteTo sends Seq and the record count
// ahead of the heads and blocks as net.Buffers (writev on TCP): the bytes
// of WriteFrame(dst, TypeQueryResp, AppendQueryResp(…)) of them decoded.
type QueryRespWriter struct {
	Seq uint64
	Err string

	n     uint64
	size  int           // the records' bytes
	heads []byte        // a chunk of heads, filled before the next is made
	pages []net.Buffers // the frame's head, then head, block, head, block, …
	front [4 + 1 + 2*binary.MaxVarintLen64]byte
}

// maxPage caps a page's records: pages double from 16 up to it and, like
// heads' chunks, never grow, so no answer is copied as a growing slice is.
const maxPage = 256

// Block adds a record whose key points are a delta-varint block and returns
// the frame body's length, type byte included, with an empty Err.
func (w *QueryRespWriter) Block(device string, t0, t1 uint32, block []byte) int {
	if k := len(w.pages); k == 0 || len(w.pages[k-1])+3 > cap(w.pages[k-1]) { // room for a record and the tail
		p := make(net.Buffers, 0, 2*(maxPage>>(4-min(k, 4)))+2)
		if k == 0 {
			p = append(p, nil) // the frame's head
		}
		w.pages = append(w.pages, p)
	}
	if need := len(device) + 4*binary.MaxVarintLen32; cap(w.heads)-len(w.heads) < need {
		w.heads = make([]byte, 0, max(need, 4<<10))
	}
	at := len(w.heads)
	w.heads = binary.AppendUvarint(appendHead(w.heads, device, t0, t1), uint64(len(block)))
	p := &w.pages[len(w.pages)-1]
	*p = append(*p, w.heads[at:len(w.heads):len(w.heads)], block)
	w.n++
	w.size += len(w.heads) - at + len(block)
	return 1 + uvarintLen(w.Seq) + uvarintLen(w.n) + w.size + 1
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// WriteTo writes the frame to dst, a page a writev, and spends w. A body over
// MaxFrame is refused with ErrFrameTooBig before anything is written.
func (w *QueryRespWriter) WriteTo(dst io.Writer) (int64, error) {
	if len(w.pages) == 0 {
		w.pages = []net.Buffers{make(net.Buffers, 1, 2)}
	}
	tail := appendString(nil, w.Err)
	front := binary.AppendUvarint(binary.AppendUvarint(append(w.front[:4], TypeQueryResp), w.Seq), w.n)
	body := len(front) - 4 + w.size + len(tail)
	if body > MaxFrame {
		return 0, ErrFrameTooBig
	}
	binary.LittleEndian.PutUint32(front, uint32(body))
	last := len(w.pages) - 1
	w.pages[0][0], w.pages[last] = front, append(w.pages[last], tail)
	var sent int64
	for _, p := range w.pages {
		n, err := p.WriteTo(dst)
		if sent += n; err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// AppendError appends m's payload to dst.
func AppendError(dst []byte, m ErrorMsg) []byte {
	return appendString(dst, m.Err)
}

// ---- decoding ----

// cursor is a bounds-checked payload reader; every decode error is
// ErrMalformed so fuzzed garbage can never panic or allocate
// implausibly.
type cursor struct {
	b []byte
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		return 0, ErrMalformed
	}
	c.b = c.b[n:]
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	v, err := c.uvarint()
	if err != nil || v > math.MaxUint32 {
		return 0, ErrMalformed
	}
	return uint32(v), nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil || n > uint64(len(c.b)) {
		return "", ErrMalformed
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s, nil
}

func (c *cursor) f64() (float64, error) {
	if len(c.b) < 8 {
		return 0, ErrMalformed
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v, nil
}

func (c *cursor) byte() (byte, error) {
	if len(c.b) < 1 {
		return 0, ErrMalformed
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v, nil
}

// block reads a length-prefixed key block through open, a trajstore reader: each refuses keys off the globe.
func block[T any](c *cursor, open func([]byte) (T, error)) (v T, err error) {
	n, err := c.uvarint()
	if err != nil || n > uint64(len(c.b)) {
		return v, ErrMalformed
	}
	if v, err = open(c.b[:n]); err != nil {
		return v, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	c.b = c.b[n:]
	return v, nil
}

// done reports trailing garbage as ErrMalformed: payloads are exact.
func (c *cursor) done() error {
	if len(c.b) != 0 {
		return ErrMalformed
	}
	return nil
}

// ParseHello decodes a Hello payload.
func ParseHello(p []byte) (Hello, error) {
	c := cursor{p}
	v, err := c.uvarint()
	if err != nil || v > math.MaxUint32 {
		return Hello{}, ErrMalformed
	}
	tenant, err := c.str()
	if err != nil {
		return Hello{}, err
	}
	return Hello{Version: uint32(v), Tenant: tenant}, c.done()
}

// ParseHelloAck decodes a HelloAck payload.
func ParseHelloAck(p []byte) (HelloAck, error) {
	c := cursor{p}
	v, err := c.uvarint()
	if err != nil || v > math.MaxUint32 {
		return HelloAck{}, ErrMalformed
	}
	msg, err := c.str()
	if err != nil {
		return HelloAck{}, err
	}
	return HelloAck{Version: uint32(v), Err: msg}, c.done()
}

// Walk parses an Ingest payload into f, reusing its storage, and opens every
// block with trajstore.OpenTrail: what it accepts is valid whole, sharing p.
// A device ID over trajstore.MaxDeviceBytes is malformed: no log stores it.
func (f *IngestFrame) Walk(p []byte) (err error) {
	c, n := cursor{p}, uint64(0)
	f.Batches = f.Batches[:0]
	if f.Seq, err = c.uvarint(); err == nil {
		n, err = c.uvarint()
	}
	if err != nil || n > uint64(len(c.b)/3) { // ≥ 3 bytes a batch; appended, so the count sizes nothing
		return ErrMalformed
	}
	for ; n > 0; n-- {
		b := TrailBatch{}
		if b.Device, err = c.str(); len(b.Device) > trajstore.MaxDeviceBytes {
			return fmt.Errorf("%w: %w", ErrMalformed, trajstore.ErrDeviceID)
		} else if err == nil {
			b.Trail, err = block(&c, trajstore.OpenTrail)
		}
		if err != nil {
			return err
		}
		f.Batches = append(f.Batches, b)
	}
	return c.done()
}

// ParseIngest decodes an Ingest payload: Walk, then each trail's keys.
func ParseIngest(p []byte) (m Ingest, err error) {
	var f IngestFrame
	if err = f.Walk(p); err == nil {
		m = Ingest{Seq: f.Seq, Batches: make([]DeviceBatch, len(f.Batches))}
		for i, b := range f.Batches {
			m.Batches[i] = DeviceBatch{Device: b.Device, Keys: b.Trail.Keys()}
		}
	}
	return m, err
}

// ParseIngestAck decodes an IngestAck payload.
func ParseIngestAck(p []byte) (IngestAck, error) {
	c := cursor{p}
	a := IngestAck{}
	var err error
	if a.Seq, err = c.uvarint(); err != nil {
		return IngestAck{}, err
	}
	if a.Accepted, err = c.uvarint(); err != nil {
		return IngestAck{}, err
	}
	n, err := c.uvarint()
	if err != nil || n > uint64(len(c.b)) {
		return IngestAck{}, ErrMalformed
	}
	for i := uint64(0); i < n; i++ { // appended, as Walk's batches are; none leaves Rejected nil
		r, err := c.u32()
		if err != nil {
			return IngestAck{}, err
		}
		a.Rejected = append(a.Rejected, r)
	}
	if a.RetryAfterMillis, err = c.u32(); err != nil {
		return IngestAck{}, err
	}
	if a.Err, err = c.str(); err != nil {
		return IngestAck{}, err
	}
	degraded, err := c.byte()
	if err != nil || degraded > 1 {
		return IngestAck{}, ErrMalformed
	}
	a.Degraded = degraded == 1
	return a, c.done()
}

// ParseSync decodes a Sync payload.
func ParseSync(p []byte) (Sync, error) {
	c := cursor{p}
	seq, err := c.uvarint()
	if err != nil {
		return Sync{}, err
	}
	flush, err := c.byte()
	if err != nil || flush > 1 {
		return Sync{}, ErrMalformed
	}
	return Sync{Seq: seq, Flush: flush == 1}, c.done()
}

// ParseSyncAck decodes a SyncAck payload.
func ParseSyncAck(p []byte) (SyncAck, error) {
	c := cursor{p}
	seq, err := c.uvarint()
	if err != nil {
		return SyncAck{}, err
	}
	msg, err := c.str()
	if err != nil {
		return SyncAck{}, err
	}
	return SyncAck{Seq: seq, Err: msg}, c.done()
}

// ParseQueryWindow decodes a QueryWindow payload. NaN bounds are
// rejected (they would silently match nothing).
func ParseQueryWindow(p []byte) (QueryWindow, error) {
	c := cursor{p}
	m := QueryWindow{}
	var err error
	if m.Seq, err = c.uvarint(); err != nil {
		return QueryWindow{}, err
	}
	for _, f := range [4]*float64{&m.MinLon, &m.MinLat, &m.MaxLon, &m.MaxLat} {
		if *f, err = c.f64(); err != nil {
			return QueryWindow{}, err
		}
		if math.IsNaN(*f) {
			return QueryWindow{}, ErrMalformed
		}
	}
	if m.T0, err = c.u32(); err != nil {
		return QueryWindow{}, err
	}
	if m.T1, err = c.u32(); err != nil {
		return QueryWindow{}, err
	}
	return m, c.done()
}

// ParseQueryTime decodes a QueryTime payload.
func ParseQueryTime(p []byte) (QueryTime, error) {
	c := cursor{p}
	m := QueryTime{}
	var err error
	if m.Seq, err = c.uvarint(); err != nil {
		return QueryTime{}, err
	}
	if m.Device, err = c.str(); err != nil {
		return QueryTime{}, err
	}
	if m.T0, err = c.u32(); err != nil {
		return QueryTime{}, err
	}
	if m.T1, err = c.u32(); err != nil {
		return QueryTime{}, err
	}
	return m, c.done()
}

// ParseQueryResp decodes a QueryResp payload.
func ParseQueryResp(p []byte) (QueryResp, error) {
	c := cursor{p}
	m := QueryResp{}
	var err error
	if m.Seq, err = c.uvarint(); err != nil {
		return QueryResp{}, err
	}
	n, err := c.uvarint()
	if err != nil || n > uint64(len(c.b)/5) { // a record takes ≥ 5 bytes: device, t0, t1, block length, count
		return QueryResp{}, ErrMalformed
	}
	for i := uint64(0); i < n; i++ { // appended, as Walk's batches are
		var r trajstore.PersistedRecord
		if r.Device, err = c.str(); err != nil {
			return QueryResp{}, err
		}
		if r.T0, err = c.u32(); err != nil {
			return QueryResp{}, err
		}
		if r.T1, err = c.u32(); err != nil {
			return QueryResp{}, err
		}
		if r.Keys, err = block(&c, trajstore.DeltaDecode); err != nil {
			return QueryResp{}, err
		}
		m.Records = append(m.Records, r)
	}
	if m.Err, err = c.str(); err != nil {
		return QueryResp{}, err
	}
	return m, c.done()
}

// ParseError decodes an ErrorMsg payload.
func ParseError(p []byte) (ErrorMsg, error) {
	c := cursor{p}
	msg, err := c.str()
	if err != nil {
		return ErrorMsg{}, err
	}
	return ErrorMsg{Err: msg}, c.done()
}
