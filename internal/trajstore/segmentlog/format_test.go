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

// TestParseManifestRejections covers the field grammar: a seg line may carry
// the legacy fields "idx" and "sum=…", in that order, and nothing else, and
// any magic line but the current one is refused.
func TestParseManifestRejections(t *testing.T) {
	seal := func(body string) []byte {
		covered := []byte(body)
		return []byte(fmt.Sprintf("%scrc %08x\n", covered, crc32.Checksum(covered, castagnoli)))
	}
	reject := []struct{ name, body string }{
		{"unknown field", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log bogus\n"},
		{"field after sum", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,3,0,0,0,0 idx\n"},
		{"idx twice", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log idx idx\n"},
		{"format 1", "BQSMANIFEST 1\ngen 1\nseg seg-00000001.log\n"},
		{"bad magic", "BQSMANIFEST 3\ngen 1\nseg seg-00000001.log\n"},
	}
	for _, c := range reject {
		if _, err := parseManifest(seal(c.body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: parse error %v, want ErrCorrupt", c.name, err)
		}
	}
	// And the full grammar parses, the legacy fields to nothing.
	m, err := parseManifest(seal("BQSMANIFEST 2\ngen 4\nseg seg-00000002.log idx sum=3,10,20,-5,-6,7,8\nseg seg-00000001.log\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (manifest{Gen: 4, Segs: []manifestSeg{{Name: "seg-00000002.log"}, {Name: "seg-00000001.log"}}}); !reflect.DeepEqual(m, want) {
		t.Fatalf("manifest misparsed: %+v", m)
	}
}

// TestOldFormatsRejected: input validation outlived the formats it used
// to admit. A segment file carrying the version-1 header byte, or a
// shard MANIFEST in format 1, fails the open with ErrCorrupt — writable
// and read-only — instead of being read as something it is not. (The
// version-1 byte on a sealed segment is a row of
// TestSealedDamageAtOpen.)
func TestOldFormatsRejected(t *testing.T) {
	build := func(t *testing.T) (root, shard string) {
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
		return root, filepath.Join(root, shardDirName(0))
	}
	openBoth := func(t *testing.T, root string) {
		t.Helper()
		for _, ro := range []bool{true, false} {
			if _, err := OpenSharded(root, 0, Options{ReadOnly: ro}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadOnly=%v: error %v, want ErrCorrupt", ro, err)
			}
		}
	}
	setVersion1 := func(t *testing.T, seg string) {
		t.Helper()
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[6] = 1
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("v1 header on the active segment", func(t *testing.T) {
		root, shard := build(t)
		man, _, err := readManifest(vfs.OS, shard)
		if err != nil {
			t.Fatal(err)
		}
		setVersion1(t, filepath.Join(shard, man.Segs[len(man.Segs)-1].Name))
		openBoth(t, root)
	})
	t.Run("format-1 manifest", func(t *testing.T) {
		root, shard := build(t)
		body := []byte("BQSMANIFEST 1\ngen 3\nseg seg-00000001.log\n")
		body = fmt.Appendf(body, "crc %08x\n", crc32.Checksum(body, castagnoli))
		if err := os.WriteFile(filepath.Join(shard, manifestName), body, 0o644); err != nil {
			t.Fatal(err)
		}
		openBoth(t, root)
	})
}

// TestRecordFraming: a version-5 record, framed as version 4's, costs
// exactly 8 + uvarint(len(dev)) + len(dev) bytes around its packed block —
// length and CRC, then the ID after its length, and no bounds — for every
// ID length a uvarint step apart up to the longest allowed, and reads back
// as the trail it framed.
// An ID one byte longer is refused: by frameRecord, dst as it was, and by
// an append, which indexes nothing.
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
		got, _, back, err := openRecord(nil, body, version)
		if err != nil || string(got) != dev || back.Bounds() != tr.Bounds() || !bytes.Equal(back.AppendBlock(nil), tr.AppendBlock(nil)) {
			t.Fatalf("%d-byte ID: reads back as a %d-byte ID, %+v, %v", n, len(got), back.Bounds(), err)
		}
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
