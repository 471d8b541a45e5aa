package segmentlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// TestParseBlockIndexRejections walks the parser's structural-defect
// branches deterministically (the fuzz target explores them too, but
// its corpus does not travel with the repository).
func TestParseBlockIndexRejections(t *testing.T) {
	metas := []recordMeta{
		{off: headerSize + recordHeaderSize, bodyLen: 40,
			Bounds: trajstore.Bounds{T0: 1, T1: 2, MinLat: -1, MinLon: -2, MaxLat: 3, MaxLon: 4}},
	}
	names := []string{"a"} // every entry's dev 0
	valid := formatBlockIndex(headerSize+recordHeaderSize+40, metas, names)
	if _, _, err := parseBlockIndex(valid, nameLog().internLocked); err != nil {
		t.Fatalf("canonical index rejected: %v", err)
	}
	corrupt := func(mutate func([]byte) []byte) []byte {
		mut := mutate(append([]byte(nil), valid...))
		// Re-seal the CRC so the parser reaches the structural checks.
		mut = mut[:len(mut)-4]
		return formatBlockIndexReseal(mut)
	}
	cases := map[string][]byte{
		"short":           {1, 2, 3},
		"bad magic":       append([]byte("NOTIDX\x01\x02"), valid[8:]...),
		"bad idx version": corrupt(func(b []byte) []byte { b[6] = 9; return b }),
		"bad seg version": corrupt(func(b []byte) []byte { b[7] = 7; return b }),
		"v1 seg version":  corrupt(func(b []byte) []byte { b[7] = 1; return b }),
		// header, 1-byte segSize/count/deviceLen varints, "a", t0, t1, then the flags byte
		"entry sans bbox": corrupt(func(b []byte) []byte { b[idxHeaderSize+3+len("a")+8] = 0; return b }),
		"crc mismatch":    append(append([]byte(nil), valid[:len(valid)-1]...), valid[len(valid)-1]^0xff),
		"trailing bytes":  corrupt(func(b []byte) []byte { return append(b, 0xaa) }),
	}
	for name, data := range cases {
		if _, _, err := parseBlockIndex(data, nameLog().internLocked); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Field-level defects, built by formatting metas that violate the
	// invariants (the formatter writes whatever it is given).
	bad := []struct {
		name string
		size int64
		ms   []recordMeta
	}{
		{"tiny segment size", 4, metas},
		{"entry before data start", 64, []recordMeta{{off: 2, bodyLen: 20, Bounds: trajstore.Bounds{T0: 1, T1: 2}}}},
		{"entry past segment end", 64, []recordMeta{{off: 16, bodyLen: 400, Bounds: trajstore.Bounds{T0: 1, T1: 2}}}},
		{"overlapping entries", 200, []recordMeta{
			{off: 16, bodyLen: 40, Bounds: trajstore.Bounds{T0: 1, T1: 2}},
			{off: 40, bodyLen: 40, Bounds: trajstore.Bounds{T0: 1, T1: 2}}}},
		{"inverted times", 200, []recordMeta{{off: 16, bodyLen: 40, Bounds: trajstore.Bounds{T0: 9, T1: 2}}}},
		{"inverted bbox", 200, []recordMeta{{off: 16, bodyLen: 40,
			Bounds: trajstore.Bounds{T0: 1, T1: 2, MinLat: 5, MaxLat: -5}}}},
		{"implausible bodyLen", maxSegmentSize, []recordMeta{{off: 16, bodyLen: MaxRecordBytes + 1, Bounds: trajstore.Bounds{T0: 1, T1: 2}}}},
	}
	for _, c := range bad {
		if _, _, err := parseBlockIndex(formatBlockIndex(c.size, c.ms, names), nameLog().internLocked); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestOffsetsFit32Bits: a recordMeta holds offsets in 32 bits, so no
// segment may pass maxSegmentSize. An open refuses a MaxSegmentBytes a
// segment could overshoot that with one record; a block index with an
// offset past 32 bits is a bad index; and a segment file larger than that
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

	// The formatter cannot write a wider offset, so the entry is built by
	// hand: segment size, one entry naming "a", times, flags, box, offset,
	// body length.
	entry := make([]byte, boundsSize+1)
	entry[8] = idxFlagBBox
	wide := binary.AppendUvarint(append(idxMagic[:], idxVersion, version), maxSegmentSize)
	wide = append(binary.AppendUvarint(binary.AppendUvarint(wide, 1), 1), 'a')
	wide = binary.AppendUvarint(binary.AppendUvarint(append(wide, entry...), maxSegmentSize), 40)
	if _, _, err := parseBlockIndex(formatBlockIndexReseal(wide), nameLog().internLocked); !errors.Is(err, errBadIndex) {
		t.Fatalf("offset 2^32 in a block index: parse = %v, want errBadIndex", err)
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

// nameLog is a shard log holding nothing but an empty name table: what the
// block-index codec numbers devices through when it is driven alone.
func nameLog() *shardLog { return &shardLog{ids: map[string]uint32{}} }

// formatBlockIndexReseal re-appends a valid CRC to mutated index bytes.
func formatBlockIndexReseal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// TestParseManifestRejections covers the field grammar: unknown fields,
// malformed summaries, and any magic line but the current one.
func TestParseManifestRejections(t *testing.T) {
	seal := func(body string) []byte {
		covered := []byte(body)
		return []byte(fmt.Sprintf("%scrc %08x\n", covered, crc32.Checksum(covered, castagnoli)))
	}
	reject := []struct{ name, body string }{
		{"unknown field", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log bogus\n"},
		{"field after sum", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,3,0,0,0,0 idx\n"},
		{"sum without bbox", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,3\n"},
		{"sum wrong arity", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2\n"},
		{"sum zero records", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=0,2,3,0,0,0,0\n"},
		{"sum inverted time", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,9,3,0,0,0,0\n"},
		{"sum inverted bbox", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,3,5,0,-5,0\n"},
		{"sum non-numeric", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,x,0,0,0,0\n"},
		{"sum bbox overflow", "BQSMANIFEST 2\ngen 1\nseg seg-00000001.log sum=1,2,3,99999999999,0,99999999999,0\n"},
		{"format 1", "BQSMANIFEST 1\ngen 1\nseg seg-00000001.log\n"},
		{"bad magic", "BQSMANIFEST 3\ngen 1\nseg seg-00000001.log\n"},
	}
	for _, c := range reject {
		if _, err := parseManifest(seal(c.body)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: parse error %v, want ErrCorrupt", c.name, err)
		}
	}
	// And the full grammar parses.
	m, err := parseManifest(seal("BQSMANIFEST 2\ngen 4\nseg seg-00000002.log idx sum=3,10,20,-5,-6,7,8\nseg seg-00000001.log\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segs) != 2 || !m.Segs[0].Idx || m.Segs[0].Sum == nil || m.Segs[0].Sum.records != 3 || m.Segs[0].Sum.Bounds != (trajstore.Bounds{T0: 10, T1: 20, MinLat: -5, MinLon: -6, MaxLat: 7, MaxLon: 8}) {
		t.Fatalf("manifest misparsed: %+v", m)
	}
	if m.Segs[1].Idx || m.Segs[1].Sum != nil {
		t.Fatalf("bare seg line misparsed: %+v", m.Segs[1])
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
