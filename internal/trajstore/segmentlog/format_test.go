package segmentlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestOffsetsFit32Bits: a recordMeta holds offsets in 32 bits, so no
// segment may pass maxSegmentSize. An open refuses a MaxSegmentBytes a
// segment could overshoot that with one record, and a segment file larger than that
// (a sparse one here) is refused with ErrCorrupt, writable and read-only,
// and left as it was — never read with its offsets cut short.
func TestOffsetsFit32Bits(t *testing.T) {
	limit := int64(maxSegmentSize - recordHeaderSize - MaxRecordBytes)
	if _, err := openShardLog(t.TempDir(), Options{MaxSegmentBytes: limit + 1}); err == nil || !strings.Contains(err.Error(), "32-bit") {
		t.Fatalf("MaxSegmentBytes one past the limit: open = %v, want an error naming the 32-bit limit", err)
	}
	l := mustOpen(t, t.TempDir(), Options{MaxSegmentBytes: limit})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	root := t.TempDir()
	s := mustOpenSharded(t, root, 1, Options{})
	if err := s.Append("dev", genKeys(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(root, shardDirName(0), segName(1))
	if err := os.Truncate(seg, maxSegmentSize+1); err != nil {
		t.Skipf("no sparse %d-byte file here: %v", int64(maxSegmentSize+1), err)
	}
	for _, ro := range []bool{false, true} {
		if _, err := OpenSharded(root, 0, Options{ReadOnly: ro}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReadOnly=%v over a segment past 2^32 bytes: open = %v, want ErrCorrupt", ro, err)
		}
		if fi, err := os.Stat(seg); err != nil {
			t.Fatal(err)
		} else if fi.Size() != maxSegmentSize+1 {
			t.Fatalf("ReadOnly=%v: the refused segment is %d bytes now", ro, fi.Size())
		}
	}
}

// TestParseManifestRejections covers the field grammar: a seg line carries
// a segment's name and nothing else — not the "idx" and "sum=…" fields
// older logs wrote after it — and any magic line but the current one is
// refused.
func TestParseManifestRejections(t *testing.T) {
	reject := []struct{ name, body string }{
		{"unknown field", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log bogus\n"},
		{"legacy fields", "BQSMANIFEST 2\ngen 4\nseg seg-00000002.log idx sum=3,10,20,-5,-6,7,8\nseg seg-00000001.log\n"},
		{"format 1", "BQSMANIFEST 1\ngen 1\nseg seg-00000001.log\n"},
		{"bad magic", "BQSMANIFEST 3\ngen 1\nseg seg-00000001.log\n"},
	}
	for _, c := range reject {
		if _, err := parseManifest(sealText([]byte(c.body))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: parse error %v, want ErrCorrupt", c.name, err)
		}
	}
	// And the grammar parses.
	m, err := parseManifest(sealText([]byte("BQSMANIFEST 2\ngen 4\nseg seg-00000002.log\nseg seg-00000001.log\n")))
	if err != nil {
		t.Fatal(err)
	}
	if want := (manifest{Gen: 4, Segs: []manifestSeg{{Name: "seg-00000002.log"}, {Name: "seg-00000001.log"}}}); !reflect.DeepEqual(m, want) {
		t.Fatalf("manifest misparsed: %+v", m)
	}
}

// TestOldFormatsRejected: input validation outlived the formats it used
// to admit. A segment file carrying a version byte older than 7 — on a
// sealed segment or on the active one — a seg line carrying the fields
// older logs wrote after the name, or a shard MANIFEST in format 1 fails
// the open with ErrCorrupt, writable and read-only, instead of being read
// as something it is not, and leaves the shard's files as they were. But
// for the format-1 manifest, which no sharded log wrote, the error names
// DESIGN.md's upgrade section.
func TestOldFormatsRejected(t *testing.T) {
	build := func(t *testing.T) (root, shard string, man manifest) {
		root = t.TempDir()
		s := mustOpenSharded(t, root, 1, Options{MaxSegmentBytes: 256})
		for i := 0; i < 12; i++ {
			if err := s.Append("dev", genKeys(i+1, 10)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		shard = filepath.Join(root, shardDirName(0))
		man, _, err := readManifest(vfs.OS, shard)
		if err != nil || len(man.Segs) < 2 {
			t.Fatalf("fixture: %d segments, %v", len(man.Segs), err)
		}
		return root, shard, man
	}
	writeManifestText := func(t *testing.T, shard, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(shard, manifestName), sealText([]byte(body)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type row struct {
		name   string
		hint   bool // the error names the upgrade section
		damage func(t *testing.T, shard string, man manifest)
	}
	rows := []row{
		{"legacy seg fields", true, func(t *testing.T, shard string, man manifest) {
			body := fmt.Sprintf("%s\ngen %d\n", manifestMagic, man.Gen)
			for i, s := range man.Segs {
				if body += "seg " + s.Name; i == 0 {
					body += " idx sum=3,10,20,-5,-6,7,8"
				}
				body += "\n"
			}
			writeManifestText(t, shard, body)
		}},
		{"format-1 manifest", false, func(t *testing.T, shard string, _ manifest) {
			writeManifestText(t, shard, "BQSMANIFEST 1\ngen 3\nseg seg-00000001.log\n")
		}},
	}
	for v := byte(1); v < version; v++ {
		for _, active := range []bool{false, true} {
			name := fmt.Sprintf("v%d header on the sealed segment", v)
			if active {
				name = fmt.Sprintf("v%d header on the active segment", v)
			}
			rows = append(rows, row{name, true, func(t *testing.T, shard string, man manifest) {
				seg := man.Segs[0].Name
				if active {
					seg = man.Segs[len(man.Segs)-1].Name
				}
				data, err := os.ReadFile(filepath.Join(shard, seg))
				if err == nil {
					data[6] = v
					err = os.WriteFile(filepath.Join(shard, seg), data, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}})
		}
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			root, shard, man := build(t)
			c.damage(t, shard, man)
			before := treeFiles(t, shard)
			for _, ro := range []bool{true, false} {
				_, err := OpenSharded(root, 0, Options{ReadOnly: ro})
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("ReadOnly=%v: error %v, want ErrCorrupt", ro, err)
				}
				if c.hint && !strings.Contains(err.Error(), `"Upgrading old data"`) {
					t.Errorf("ReadOnly=%v: %v names no upgrade section", ro, err)
				}
				if after := treeFiles(t, shard); !reflect.DeepEqual(after, before) {
					t.Fatalf("ReadOnly=%v: the refused open modified the shard", ro)
				}
			}
		})
	}
}

// idOnlyBody is a record body that is only its ID length, 133, with no byte
// of ID or payload after it.
var idOnlyBody = []byte{0x85, 0x01}

// sealBody appends body to dst as a record: its length, its CRC, itself.
func sealBody(dst, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	return append(binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli)), body...)
}

// TestRecordFraming: a record costs exactly 8 + uvarint(len(dev)) +
// len(dev) bytes around its packed block — length and CRC, then the ID
// after its length — for every ID length a uvarint step apart up to the
// longest allowed, and reads back as the trail it framed.
// An ID one byte longer is refused: by frameRecord, dst as it was, and by
// an append, which indexes nothing. A CRC-valid body that is only its ID
// length is refused by the read, not sliced past its end.
func TestRecordFraming(t *testing.T) {
	var tr trajstore.Trail
	if err := tr.Add(genKeys(3, 20)...); err != nil {
		t.Fatal(err)
	}
	packed := tr.AppendPacked(nil)
	for _, n := range []int{0, 1, 6, 127, 128, 16383, 16384, 1<<16 - 1} {
		dev := strings.Repeat("d", n)
		rec, err := frameRecord([]byte("x"), dev, &tr)
		if err != nil {
			t.Fatalf("%d-byte ID: %v", n, err)
		}
		rec = rec[1:]
		if frame := len(rec) - len(packed); frame != recordHeaderSize+len(binary.AppendUvarint(nil, uint64(n)))+n {
			t.Fatalf("%d-byte ID: %d bytes around the packed block", n, frame)
		}
		body, _, next, ok := nextRecord(rec, 0)
		if !ok || next != len(rec) || !bytes.HasSuffix(body, packed) {
			t.Fatalf("%d-byte ID: the record does not frame its packed block", n)
		}
		got, _, back, err := openRecord(nil, body)
		if err != nil || string(got) != dev || back.Bounds() != tr.Bounds() || !bytes.Equal(back.AppendBlock(nil), tr.AppendBlock(nil)) {
			t.Fatalf("%d-byte ID: reads back as a %d-byte ID, %+v, %v", n, len(got), back.Bounds(), err)
		}
	}
	if body, _, _, ok := nextRecord(sealBody(nil, idOnlyBody), 0); !ok {
		t.Fatal("the ID-length-only record does not frame")
	} else if _, _, _, err := openRecord(nil, body); err == nil {
		t.Fatal("a body that is only its ID length opens")
	}
	long := strings.Repeat("d", 1<<16)
	if rec, err := frameRecord([]byte("x"), long, &tr); err == nil || string(rec) != "x" {
		t.Fatalf("a %d-byte ID framed: %d bytes, %v", len(long), len(rec), err)
	}
	l := mustOpen(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.Append(long, genKeys(3, 20)); err == nil || l.Stats().Records != 0 {
		t.Fatalf("appending under a %d-byte ID = %v, %+v", len(long), err, l.Stats())
	}
}
