package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

func testKeys(n int) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, n)
	for i := range keys {
		keys[i] = trajstore.GeoKey{
			Lat: 39.9 + float64(i)*0.0011,
			Lon: 116.3 - float64(i)*0.0007,
			T:   1000 + uint32(i)*30,
		}
	}
	return keys
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{0xAB}, 1<<16)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatalf("WriteFrame %d: %v", i, err)
		}
	}
	var scratch []byte
	for i, want := range payloads {
		typ, got, s, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		scratch = s
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type = %#x, want %#x", i, typ, i+1)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if _, _, _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameLimits(t *testing.T) {
	if err := WriteFrame(io.Discard, TypeIngest, make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write: err = %v, want ErrFrameTooBig", err)
	}

	// Oversized length prefix must be rejected before allocating.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized read: err = %v, want ErrFrameTooBig", err)
	}

	// Zero-length frame (no type byte) is malformed.
	binary.LittleEndian.PutUint32(hdr[:], 0)
	if _, _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length read: err = %v, want ErrMalformed", err)
	}

	// Truncated body is an unexpected EOF, not a clean one.
	binary.LittleEndian.PutUint32(hdr[:], 10)
	if _, _, _, err := ReadFrame(bytes.NewReader(append(hdr[:], 1, 2, 3)), nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated read: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestMessageRoundTrips(t *testing.T) {
	keys := testKeys(12)

	t.Run("hello", func(t *testing.T) {
		in := Hello{Version: Version, Tenant: "fleet-a"}
		out, err := ParseHello(AppendHello(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("helloAck", func(t *testing.T) {
		in := HelloAck{Version: Version, Err: "bad tenant"}
		out, err := ParseHelloAck(AppendHelloAck(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("ingest", func(t *testing.T) {
		in := Ingest{Seq: 7, Batches: []DeviceBatch{
			{Device: "bus-001", Keys: keys},
			{Device: "bus-002", Keys: keys[:1]},
		}}
		p, err := AppendIngest(nil, in)
		if err != nil {
			t.Fatalf("AppendIngest: %v", err)
		}
		out, err := ParseIngest(p)
		if err != nil {
			t.Fatalf("ParseIngest: %v", err)
		}
		if out.Seq != in.Seq || len(out.Batches) != len(in.Batches) {
			t.Fatalf("got %+v", out)
		}
		for i := range in.Batches {
			if out.Batches[i].Device != in.Batches[i].Device {
				t.Fatalf("batch %d device %q", i, out.Batches[i].Device)
			}
			assertKeysEqual(t, out.Batches[i].Keys, in.Batches[i].Keys)
		}
	})
	t.Run("ingestAck", func(t *testing.T) {
		in := IngestAck{Seq: 7, Accepted: 12, Rejected: []uint32{1, 3}, RetryAfterMillis: 50, Err: "disk on fire"}
		out, err := ParseIngestAck(AppendIngestAck(nil, in))
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
		// Empty Rejected decodes to nil, not []uint32{}.
		in2 := IngestAck{Seq: 1, Accepted: 5}
		out2, err := ParseIngestAck(AppendIngestAck(nil, in2))
		if err != nil || !reflect.DeepEqual(out2, in2) {
			t.Fatalf("got %+v, %v; want %+v", out2, err, in2)
		}
	})
	t.Run("sync", func(t *testing.T) {
		for _, flush := range []bool{false, true} {
			in := Sync{Seq: 9, Flush: flush}
			out, err := ParseSync(AppendSync(nil, in))
			if err != nil || out != in {
				t.Fatalf("got %+v, %v; want %+v", out, err, in)
			}
		}
	})
	t.Run("syncAck", func(t *testing.T) {
		in := SyncAck{Seq: 9, Err: "sync: EIO"}
		out, err := ParseSyncAck(AppendSyncAck(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("queryWindow", func(t *testing.T) {
		in := QueryWindow{Seq: 3, MinLon: 116.2, MinLat: 39.8, MaxLon: 116.5, MaxLat: 40.1, T0: 100, T1: 9000}
		out, err := ParseQueryWindow(AppendQueryWindow(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("queryTime", func(t *testing.T) {
		in := QueryTime{Seq: 4, Device: "bus-001", T0: 0, T1: 1 << 30}
		out, err := ParseQueryTime(AppendQueryTime(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
	t.Run("queryResp", func(t *testing.T) {
		in := QueryResp{Seq: 4, Records: []trajstore.PersistedRecord{
			{Device: "bus-001", T0: 1000, T1: 1330, Keys: keys[:4]},
			{Device: "bus-002", T0: 2000, T1: 2000, Keys: keys[:1]},
		}}
		p, err := AppendQueryResp(nil, in)
		if err != nil {
			t.Fatalf("AppendQueryResp: %v", err)
		}
		out, err := ParseQueryResp(p)
		if err != nil {
			t.Fatalf("ParseQueryResp: %v", err)
		}
		if out.Seq != in.Seq || out.Err != "" || len(out.Records) != 2 {
			t.Fatalf("got %+v", out)
		}
		for i := range in.Records {
			g, w := out.Records[i], in.Records[i]
			if g.Device != w.Device || g.T0 != w.T0 || g.T1 != w.T1 {
				t.Fatalf("record %d: got %+v, want %+v", i, g, w)
			}
			assertKeysEqual(t, g.Keys, w.Keys)
		}
	})
	t.Run("error", func(t *testing.T) {
		in := ErrorMsg{Err: "protocol violation"}
		out, err := ParseError(AppendError(nil, in))
		if err != nil || out != in {
			t.Fatalf("got %+v, %v; want %+v", out, err, in)
		}
	})
}

// assertKeysEqual compares at wire resolution: encoding quantizes
// coordinates, so compare re-encoded blocks.
func assertKeysEqual(t *testing.T, got, want []trajstore.GeoKey) {
	t.Helper()
	g, err1 := trajstore.DeltaEncode(got)
	w, err2 := trajstore.DeltaEncode(want)
	if err1 != nil || err2 != nil {
		t.Fatalf("re-encode: %v, %v", err1, err2)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("key blocks differ: %d vs %d keys", len(got), len(want))
	}
}

func TestParseRejectsTrailingGarbage(t *testing.T) {
	p := AppendSync(nil, Sync{Seq: 1, Flush: true})
	if _, err := ParseSync(append(p, 0xFF)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing garbage: err = %v, want ErrMalformed", err)
	}
}

func TestParseIngestRejectsHugeCount(t *testing.T) {
	// A batch count far beyond the payload length must fail before any
	// large allocation.
	p := binary.AppendUvarint(nil, 1)  // seq
	p = binary.AppendUvarint(p, 1<<40) // absurd batch count
	if _, err := ParseIngest(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("huge count: err = %v, want ErrMalformed", err)
	}

	// A frame-sized payload whose count the bytes could almost hold — just
	// under the payload's length, or exactly what its minimum encoding allows
	// — must not make a parser allocate more than twice the payload before it
	// fails: a count sizes nothing the bytes do not back.
	body := make([]byte, MaxFrame-16)
	hostile := func(n int) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(n)), body...)
	}
	var frame IngestFrame
	for name, c := range map[string]struct {
		minBytes int
		parse    func([]byte) error
	}{
		"ParseIngest":      {3, func(p []byte) error { _, err := ParseIngest(p); return err }},
		"IngestFrame.Walk": {3, frame.Walk},
		"ParseQueryResp":   {5, func(p []byte) error { _, err := ParseQueryResp(p); return err }},
	} {
		for _, n := range []int{len(body) - 1, len(body) / c.minBytes} {
			p := hostile(n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.parse(p)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("%s, count %d over %d bytes: err = %v, want ErrMalformed", name, n, len(p), err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2*uint64(len(p)) {
				t.Fatalf("%s, count %d over %d bytes: allocated %d bytes before failing", name, n, len(p), grew)
			}
		}
	}
}

// TestWalkRefusesOversizedDeviceID: an ID a log record cannot store is
// malformed on the wire, so no fix of it is ever acked; the longest one a
// record stores is taken.
func TestWalkRefusesOversizedDeviceID(t *testing.T) {
	keys := []trajstore.GeoKey{{Lat: 1, Lon: 2, T: 3}}
	var f IngestFrame
	for n, want := range map[int]error{trajstore.MaxDeviceBytes: nil, trajstore.MaxDeviceBytes + 1: trajstore.ErrDeviceID} {
		p, err := AppendIngest(nil, Ingest{Seq: 1, Batches: []DeviceBatch{{Device: strings.Repeat("d", n), Keys: keys}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Walk(p); !errors.Is(err, want) || want != nil && !errors.Is(err, ErrMalformed) {
			t.Fatalf("Walk of a %d-byte device ID = %v, want %v", n, err, want)
		}
	}
}

func TestParseQueryWindowRejectsNaN(t *testing.T) {
	in := QueryWindow{Seq: 1, MinLon: 1, MinLat: 2, MaxLon: 3, MaxLat: 4, T0: 0, T1: 10}
	p := AppendQueryWindow(nil, in)
	// MinLon float64 starts right after the 1-byte seq varint.
	for i := 1; i < 9; i++ {
		p[i] = 0xFF // quiet NaN pattern
	}
	if _, err := ParseQueryWindow(p); !errors.Is(err, ErrMalformed) {
		t.Fatalf("NaN bound: err = %v, want ErrMalformed", err)
	}
}

// TestKeyBlockBytes: a key block encoded straight into the frame buffer
// and shifted behind its length is, for every length-prefix width and on
// both sides of each width's boundary, the bytes of "encode into a slice
// of its own, then copy" — and an unencodable key leaves no partial
// frame behind.
func TestKeyBlockBytes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 18, 19, 20, 21, 22, 23, 24, 2300, 2400, 2500, 2600, 2700, 2800} {
		keys := testKeys(n)
		block, err := trajstore.DeltaEncode(keys)
		if err != nil {
			t.Fatal(err)
		}
		want := append(binary.AppendUvarint([]byte("head"), uint64(len(block))), block...)
		got, err := appendKeyBlock([]byte("head"), keys)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d keys (%d-byte block): %x, %v; want %x", n, len(block), got, err, want)
		}
	}
	widths := map[int]bool{}
	for n := 0; n < 3000; n += 25 {
		block, _ := trajstore.DeltaEncode(testKeys(n))
		widths[len(binary.AppendUvarint(nil, uint64(len(block))))] = true
	}
	if !widths[1] || !widths[2] || !widths[3] {
		t.Fatalf("length-prefix widths covered: %v, want 1, 2 and 3 bytes", widths)
	}
	bad := append(testKeys(3), trajstore.GeoKey{Lat: 91})
	if got, err := appendKeyBlock([]byte("head"), bad); got != nil || !errors.Is(err, trajstore.ErrRange) {
		t.Fatalf("block with a key at 91° N = %x, %v", got, err)
	}
	if got, err := AppendIngest(nil, Ingest{Batches: []DeviceBatch{{Device: "d", Keys: bad}}}); got != nil || !errors.Is(err, trajstore.ErrRange) {
		t.Fatalf("AppendIngest with a key at 91° N = %x, %v", got, err)
	}
}

// writerFrame writes m through QueryRespWriter, each record's keys handed
// over as their stored block, and checks that the frame is
// WriteFrame(TypeQueryResp, AppendQueryResp(m)) byte for byte and that the
// last Block reported its body's length.
func writerFrame(t *testing.T, m QueryResp) []byte {
	t.Helper()
	w, size := QueryRespWriter{Seq: m.Seq, Err: m.Err}, 0
	for _, r := range m.Records {
		block, err := trajstore.DeltaEncode(r.Keys)
		if err != nil {
			t.Fatal(err)
		}
		size = w.Block(r.Device, r.T0, r.T1, block)
	}
	var got, want bytes.Buffer
	n, err := w.WriteTo(&got)
	if err != nil || n != int64(got.Len()) {
		t.Fatalf("%d records: WriteTo = %d, %v; wrote %d B", len(m.Records), n, err, got.Len())
	}
	p, err := AppendQueryResp(nil, m)
	if err == nil {
		err = WriteFrame(&want, TypeQueryResp, p)
	}
	if err != nil || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%d records, Err %q: the writer's %d B differ from the %d B frame of AppendQueryResp (%v)", len(m.Records), m.Err, got.Len(), want.Len(), err)
	}
	if body := got.Len() - 4 - len(appendString(nil, m.Err)) + 1; len(m.Records) > 0 && size != body {
		t.Fatalf("%d records: Block reported a %d B body, WriteTo sent %d B with an empty Err", len(m.Records), size, body)
	}
	return got.Bytes()
}

// TestQueryRespWriter: the frame the writer assembles around stored blocks
// is the one AppendQueryResp's payload makes — at each step of the record
// count's varint width, with zero-key records, device names of 0 and 300
// bytes, for answers of many pages and for the in-band error — and it
// parses back to the records.
func TestQueryRespWriter(t *testing.T) {
	long := strings.Repeat("d", 300)
	for _, n := range []int{0, 1, 127, 128, 16384} {
		recs := make([]trajstore.PersistedRecord, n)
		for i := range recs {
			dev := []string{"", "dev-" + strconv.Itoa(i%9), long}[i%3]
			recs[i] = trajstore.PersistedRecord{Device: dev, T0: uint32(i), T1: uint32(2 * i), Keys: testKeys(i % 5)}
		}
		frame := writerFrame(t, QueryResp{Seq: 77, Records: recs})
		resp, err := ParseQueryResp(frame[5:])
		if err != nil || resp.Seq != 77 || len(resp.Records) != n {
			t.Fatalf("%d records: parsed seq %d, %d records, %v", n, resp.Seq, len(resp.Records), err)
		}
	}
	for _, m := range []QueryResp{
		{Seq: 5, Err: "result not sendable — narrow the window"},
		{Seq: 1 << 40, Records: []trajstore.PersistedRecord{{Device: "dev", T0: 1, T1: 2}}, Err: long},
	} {
		if resp, err := ParseQueryResp(writerFrame(t, m)[5:]); err != nil || resp.Err != m.Err {
			t.Fatalf("an answer with an error message parses to %+v, %v", resp, err)
		}
	}
	// A frame over the cap is refused before a byte is written.
	w := QueryRespWriter{Seq: 1}
	w.Block("dev", 1, 2, make([]byte, MaxFrame))
	var sink bytes.Buffer
	if n, err := w.WriteTo(&sink); !errors.Is(err, ErrFrameTooBig) || n != 0 || sink.Len() != 0 {
		t.Fatalf("WriteTo over MaxFrame = %d, %v; wrote %d B", n, err, sink.Len())
	}
}
