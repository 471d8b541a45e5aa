package proto

import (
	"bytes"
	"slices"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// FuzzFrameDecode mirrors trajstore's FuzzDeltaDecode for the network
// layer: any byte string handed to the parsers must either fail with an
// error or decode into a message that re-encodes and re-parses to the
// same wire bytes. Panics and runaway allocations are the bugs hunted.
func FuzzFrameDecode(f *testing.F) {
	keys := []trajstore.GeoKey{
		{Lat: 39.9, Lon: 116.3, T: 1000},
		{Lat: 39.91, Lon: 116.31, T: 1030},
	}
	f.Add(TypeHello, AppendHello(nil, Hello{Version: Version, Tenant: "t"}))
	f.Add(TypeHelloAck, AppendHelloAck(nil, HelloAck{Version: Version}))
	if p, err := AppendIngest(nil, Ingest{Seq: 1, Batches: []DeviceBatch{{Device: "d", Keys: keys}}}); err == nil {
		f.Add(TypeIngest, p)
	}
	f.Add(TypeIngestAck, AppendIngestAck(nil, IngestAck{Seq: 1, Accepted: 2, Rejected: []uint32{0}, RetryAfterMillis: 50}))
	f.Add(TypeSync, AppendSync(nil, Sync{Seq: 2, Flush: true}))
	f.Add(TypeSyncAck, AppendSyncAck(nil, SyncAck{Seq: 2}))
	f.Add(TypeQueryWindow, AppendQueryWindow(nil, QueryWindow{Seq: 3, MinLon: 116, MinLat: 39, MaxLon: 117, MaxLat: 40, T1: 99}))
	f.Add(TypeQueryTime, AppendQueryTime(nil, QueryTime{Seq: 4, Device: "d", T1: 99}))
	if p, err := AppendQueryResp(nil, QueryResp{Seq: 4, Records: []trajstore.PersistedRecord{{Device: "d", T0: 1000, T1: 1030, Keys: keys}}}); err == nil {
		f.Add(TypeQueryResp, p)
	}
	f.Add(TypeError, AppendError(nil, ErrorMsg{Err: "x"}))
	f.Add(byte(0xFF), []byte{})

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		switch typ {
		case TypeHello:
			if m, err := ParseHello(payload); err == nil {
				reparse(t, payload, AppendHello(nil, m))
			}
		case TypeHelloAck:
			if m, err := ParseHelloAck(payload); err == nil {
				reparse(t, payload, AppendHelloAck(nil, m))
			}
		case TypeIngest:
			m, err := ParseIngest(payload)
			walkParity(t, payload, m, err)
			if err == nil {
				p2, err := AppendIngest(nil, m)
				if err != nil {
					t.Fatalf("decoded Ingest fails to re-encode: %v", err)
				}
				// Delta blocks are canonical, so re-encode is exact.
				reparse(t, payload, p2)
			}
		case TypeIngestAck:
			if m, err := ParseIngestAck(payload); err == nil {
				reparse(t, payload, AppendIngestAck(nil, m))
			}
		case TypeSync:
			if m, err := ParseSync(payload); err == nil {
				reparse(t, payload, AppendSync(nil, m))
			}
		case TypeSyncAck:
			if m, err := ParseSyncAck(payload); err == nil {
				reparse(t, payload, AppendSyncAck(nil, m))
			}
		case TypeQueryWindow:
			if m, err := ParseQueryWindow(payload); err == nil {
				reparse(t, payload, AppendQueryWindow(nil, m))
			}
		case TypeQueryTime:
			if m, err := ParseQueryTime(payload); err == nil {
				reparse(t, payload, AppendQueryTime(nil, m))
			}
		case TypeQueryResp:
			if m, err := ParseQueryResp(payload); err == nil {
				p2, err := AppendQueryResp(nil, m)
				if err != nil {
					t.Fatalf("decoded QueryResp fails to re-encode: %v", err)
				}
				reparse(t, payload, p2)
				writerFrame(t, m) // the server's writer sends the same frame
			}
		case TypeError:
			if m, err := ParseError(payload); err == nil {
				reparse(t, payload, AppendError(nil, m))
			}
		}
	})
}

// walkParity holds the daemon's path to ParseIngest's: IngestFrame.Walk
// accepts exactly the payloads ParseIngest does (m, err), with the same seq
// and devices, and each trail's keys read one by one with Cursor.Next — as
// a shard worker reads them — are ParseIngest's keys and DeltaDecode's of
// the trail's block.
func walkParity(t *testing.T, payload []byte, m Ingest, err error) {
	t.Helper()
	var f IngestFrame
	werr := f.Walk(payload)
	if (werr == nil) != (err == nil) {
		t.Fatalf("Walk = %v, ParseIngest = %v", werr, err)
	}
	if err != nil {
		return
	}
	if f.Seq != m.Seq || len(f.Batches) != len(m.Batches) {
		t.Fatalf("Walk: seq %d, %d batches; ParseIngest: seq %d, %d batches", f.Seq, len(f.Batches), m.Seq, len(m.Batches))
	}
	for i, b := range f.Batches {
		var next []trajstore.GeoKey
		for c := b.Trail.Cursor(); ; {
			k, ok := c.Next()
			if !ok {
				break
			}
			next = append(next, k)
		}
		decoded, derr := trajstore.DeltaDecode(b.Trail.AppendBlock(nil))
		want := m.Batches[i]
		if b.Device != want.Device || derr != nil || len(next) != b.Trail.Len() ||
			!slices.Equal(next, want.Keys) || !slices.Equal(decoded, want.Keys) {
			t.Fatalf("batch %d: Walk %q %v, ParseIngest %q %v, DeltaDecode %v (%v)", i, b.Device, next, want.Device, want.Keys, decoded, derr)
		}
	}
}

// reparse asserts a successfully decoded payload re-encodes to bytes
// that are accepted again. Varints are canonical in our encoders, so
// byte equality is the contract — but the fuzzer may hand us
// non-canonical varints that still parse; in that case only require the
// round-trip to be stable from the re-encoded form onward.
func reparse(t *testing.T, original, reencoded []byte) {
	t.Helper()
	if bytes.Equal(original, reencoded) {
		return
	}
	// Non-canonical input: the re-encoded form must be a fixed point.
	if len(reencoded) > len(original) {
		t.Fatalf("re-encode grew payload: %d -> %d bytes", len(original), len(reencoded))
	}
}

// FuzzReadFrame feeds arbitrary streams to the frame reader: it must
// never panic, never allocate beyond MaxFrame, and must consume frames
// deterministically.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = WriteFrame(&good, TypeSync, AppendSync(nil, Sync{Seq: 1}))
	f.Add(good.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		var buf []byte
		for i := 0; i < 64; i++ {
			typ, payload, b, err := ReadFrame(r, buf)
			if err != nil {
				return
			}
			buf = b
			if len(payload)+1 > MaxFrame {
				t.Fatalf("frame over cap: type %#x, %d bytes", typ, len(payload))
			}
		}
	})
}
