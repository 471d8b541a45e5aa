// Block index: the durable form of one sealed segment's record
// metadata. When a segment is sealed — by rotation or written by the
// compactor — its per-record index entries (device, time bounds,
// bounding box, body offset) are serialized into a sibling
// "seg-NNNNNNNN.idx" file, CRC-protected and referenced from the
// MANIFEST. Open then rebuilds a sealed segment's index by reading the
// small .idx file instead of the whole .log file, and window queries
// prune records spatially without touching the payloads.
//
// The index is strictly an accelerator: it never changes results. A
// missing, stale (size-mismatched) or corrupt index falls back to the
// full segment scan, which recovers exactly the same metadata from the
// record headers themselves — FuzzBlockIndex pins the never-wrong,
// never-panic contract.
//
// Layout (little-endian):
//
//	0..5   magic "BQSIDX"
//	6      index format version (1)
//	7      record-format version of the covered segment file (2)
//	body:
//	  uvarint  segSize      valid bytes of the covered .log file
//	  uvarint  recordCount
//	  per record, in file order:
//	    uvarint  deviceLen, device ID bytes
//	    u32 t0, u32 t1      indexed time bounds
//	    u8  flags           1: a bounding box follows (always)
//	    4 × u32             bbox as int32 1e-7°: minLat, minLon, maxLat, maxLon
//	    uvarint  off        body offset within the segment file
//	    uvarint  bodyLen
//	u32  crc32c over every preceding byte
package segmentlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

const (
	// idxHeaderSize is the fixed index-file header: 6 magic bytes, the
	// index format version and the covered segment's record version.
	idxHeaderSize = 8
	// idxVersion is the current block-index format version.
	idxVersion = 1
	// idxFlagBBox marks an entry that carries a bounding box; every
	// entry does, and any other flags byte is rejected.
	idxFlagBBox = 1
)

var idxMagic = [6]byte{'B', 'Q', 'S', 'I', 'D', 'X'}

// errBadIndex reports a structurally invalid block-index file; callers
// fall back to scanning the segment itself.
var errBadIndex = errors.New("segmentlog: invalid block index")

// idxName formats the canonical index file name for segment sequence n.
func idxName(n uint64) string { return fmt.Sprintf("seg-%08d.idx", n) }

// parseIdxName extracts the sequence number from a canonical index file
// name; ok is false for anything else.
func parseIdxName(name string) (uint64, bool) {
	if base, ok := strings.CutSuffix(name, ".idx"); ok {
		return parseSegName(base + ".log")
	}
	return 0, false
}

// idxPathFor derives the index file path of a segment file path.
func idxPathFor(segPath string) (string, bool) {
	n, ok := parseSegName(filepath.Base(segPath))
	if !ok {
		return "", false
	}
	return filepath.Join(filepath.Dir(segPath), idxName(n)), true
}

// formatBlockIndex renders the index of one sealed segment: its valid
// size and per-record metadata in file order, each device named from names.
func formatBlockIndex(segSize int64, metas []recordMeta, names []string) []byte {
	out := make([]byte, 0, idxHeaderSize+16+len(metas)*32)
	out = append(out, idxMagic[:]...)
	out = append(out, idxVersion, version)
	out = binary.AppendUvarint(out, uint64(segSize))
	out = binary.AppendUvarint(out, uint64(len(metas)))
	for i := range metas {
		m := &metas[i]
		out = binary.AppendUvarint(out, uint64(len(names[m.dev])))
		out = append(out, names[m.dev]...)
		out = binary.LittleEndian.AppendUint32(out, m.T0)
		out = binary.LittleEndian.AppendUint32(out, m.T1)
		out = append(out, idxFlagBBox)
		out = binary.LittleEndian.AppendUint32(out, uint32(m.MinLat))
		out = binary.LittleEndian.AppendUint32(out, uint32(m.MinLon))
		out = binary.LittleEndian.AppendUint32(out, uint32(m.MaxLat))
		out = binary.LittleEndian.AppendUint32(out, uint32(m.MaxLon))
		out = binary.AppendUvarint(out, uint64(m.off))
		out = binary.AppendUvarint(out, uint64(m.bodyLen))
	}
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// parseBlockIndex validates and decodes a block-index file. Every
// structural defect is an error: entries must be in strictly increasing
// file order, inside the recorded segment size and individually
// plausible, so a loaded index can never address bytes a scan would not
// have indexed — nor an offset past 32 bits, the segment size being at
// most maxSegmentSize. (Queries still CRC-verify each record they read, so
// even a colliding-CRC forgery cannot produce wrong results — only a
// read error.) Each entry's device is numbered by intern.
func parseBlockIndex(data []byte, intern func([]byte) uint32) (segSize int64, metas []recordMeta, err error) {
	if len(data) < idxHeaderSize+4 {
		return 0, nil, fmt.Errorf("%w: short file", errBadIndex)
	}
	if [6]byte(data[:6]) != idxMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", errBadIndex)
	}
	if data[6] != idxVersion {
		return 0, nil, fmt.Errorf("%w: unsupported index version %d", errBadIndex, data[6])
	}
	if data[7] != version {
		return 0, nil, fmt.Errorf("%w: unsupported segment version %d", errBadIndex, data[7])
	}
	covered := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(covered, castagnoli); got != want {
		return 0, nil, fmt.Errorf("%w: crc mismatch (%08x != %08x)", errBadIndex, got, want)
	}
	b := covered[idxHeaderSize:]
	next := func() (uint64, error) {
		v, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", errBadIndex)
		}
		b = b[w:]
		return v, nil
	}
	size, err := next()
	if err != nil {
		return 0, nil, err
	}
	if size < headerSize || size > maxSegmentSize {
		return 0, nil, fmt.Errorf("%w: implausible segment size %d", errBadIndex, size)
	}
	segSize = int64(size)
	count, err := next()
	if err != nil {
		return 0, nil, err
	}
	// Every entry costs ≥ 12 bytes on the wire; a larger count is a lie.
	if count > uint64(len(b))/12+1 {
		return 0, nil, fmt.Errorf("%w: implausible record count %d", errBadIndex, count)
	}
	metas = make([]recordMeta, 0, count)
	prevEnd := int64(headerSize)
	for i := uint64(0); i < count; i++ {
		var m recordMeta
		devLen, err := next()
		if err != nil {
			return 0, nil, err
		}
		if devLen > uint64(^uint16(0)) || devLen > uint64(len(b)) {
			return 0, nil, fmt.Errorf("%w: implausible device length %d", errBadIndex, devLen)
		}
		m.dev = intern(b[:devLen])
		b = b[devLen:]
		if len(b) < 1+boundsSize {
			return 0, nil, fmt.Errorf("%w: truncated entry", errBadIndex)
		}
		if b[8] != idxFlagBBox {
			return 0, nil, fmt.Errorf("%w: unknown entry flags %#x", errBadIndex, b[8])
		}
		if m.Bounds, err = readBounds(b, b[9:]); err != nil {
			return 0, nil, fmt.Errorf("%w: %v", errBadIndex, err)
		}
		b = b[1+boundsSize:]
		off, err := next()
		if err != nil {
			return 0, nil, err
		}
		bodyLen, err := next()
		if err != nil {
			return 0, nil, err
		}
		if bodyLen < minBodySize || bodyLen > MaxRecordBytes {
			return 0, nil, fmt.Errorf("%w: implausible body length %d", errBadIndex, bodyLen)
		}
		if int64(off) < prevEnd+recordHeaderSize || int64(off+bodyLen) > segSize {
			return 0, nil, fmt.Errorf("%w: entry outside segment bounds", errBadIndex)
		}
		m.off, m.bodyLen = uint32(off), uint32(bodyLen)
		prevEnd = int64(off + bodyLen)
		metas = append(metas, m)
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", errBadIndex, len(b))
	}
	return segSize, metas, nil
}

// writeBlockIndex persists (and fsyncs) the index of one sealed
// segment next to it. The write is not atomic: a torn index fails the
// CRC on load and degrades to a scan, never to wrong results.
func writeBlockIndex(fsys vfs.FS, segPath string, segSize int64, metas []recordMeta, names []string) error {
	path, ok := idxPathFor(segPath)
	if !ok {
		return fmt.Errorf("segmentlog: %s is not a canonical segment name", segPath)
	}
	return writeFileSync(fsys, "block index", path, formatBlockIndex(segSize, metas, names))
}

// loadBlockIndex reads and validates the index of segPath, additionally
// requiring the segment file's current size to equal the indexed size —
// a sealed segment never changes, so any difference means the index
// belongs to an earlier life of the file (an unpublished rotation) and
// must not be trusted. Devices are numbered by intern.
func loadBlockIndex(fsys vfs.FS, segPath string, intern func([]byte) uint32) (segSize int64, metas []recordMeta, err error) {
	path, ok := idxPathFor(segPath)
	if !ok {
		return 0, nil, fmt.Errorf("%w: non-canonical segment name", errBadIndex)
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errBadIndex, err)
	}
	segSize, metas, err = parseBlockIndex(data, intern)
	if err != nil {
		return 0, nil, err
	}
	fi, err := fsys.Stat(segPath)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", errBadIndex, err)
	}
	if fi.Size() != segSize {
		return 0, nil, fmt.Errorf("%w: segment is %d bytes, index covers %d", errBadIndex, fi.Size(), segSize)
	}
	return segSize, metas, nil
}
