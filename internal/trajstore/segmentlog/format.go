// The segment file format: the file header and the record framing, written
// (frameRecord) and parsed (nextRecord, splitBody, openRecord) in one place.
package segmentlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// nextRecord validates the record starting at pos and returns its body,
// the body's file offset and the offset just past the record.
func nextRecord(data []byte, pos int) (body []byte, bodyOff, next int, ok bool) {
	if pos+recordHeaderSize > len(data) {
		return nil, 0, 0, false
	}
	bodyLen := int(binary.LittleEndian.Uint32(data[pos:]))
	crc := binary.LittleEndian.Uint32(data[pos+4:])
	if bodyLen < minBodySize || bodyLen > MaxRecordBytes {
		return nil, 0, 0, false
	}
	bodyOff = pos + recordHeaderSize
	next = bodyOff + bodyLen
	if next > len(data) || next < pos { // overflow-safe upper check
		return nil, 0, 0, false
	}
	body = data[bodyOff:next]
	if crc32.Checksum(body, castagnoli) != crc {
		return nil, 0, 0, false
	}
	return body, bodyOff, next, true
}

// minBodySize is the smallest legal body, a version-4 or 5 one: the device
// length (a one-byte uvarint, for no bytes of ID) and a one-byte payload
// (the key count).
const minBodySize = 1 + 1

// legacyBoundsSize is the bounds versions 2 and 3 put after the ID: the
// payload's, as TestLegacyHeaderBounds pins, so no read takes them.
const legacyBoundsSize = 8 + 16

// splitBody splits a validated record body of a version-v segment into
// its device ID and payload, slices of it.
func splitBody(body []byte, v byte) (device, payload []byte, err error) {
	devLen, n, skip := uint64(0), 0, 0
	if v >= 4 {
		devLen, n = binary.Uvarint(body)
	} else if len(body) >= 2 {
		devLen, n, skip = uint64(binary.LittleEndian.Uint16(body)), 2, legacyBoundsSize
	}
	if n <= 0 || len(body)-n-skip < 1 || devLen > uint64(len(body)-n-skip-1) {
		return nil, nil, trajstore.ErrShortBuffer
	}
	rest := body[n:]
	return rest[:devLen], rest[int(devLen)+skip:], nil
}

// frameRecord appends the full wire form of one record — length prefix,
// CRC, the device ID after its uvarint length, the trail's packed block —
// to dst; on an error dst comes back as it was. Shared by the append path
// and the compactor so the two can never drift apart on format.
func frameRecord(dst []byte, device string, tr *trajstore.Trail) ([]byte, error) {
	if len(device) > trajstore.MaxDeviceBytes {
		return dst, fmt.Errorf("segmentlog: %w", trajstore.ErrDeviceID)
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // bodyLen and CRC, backpatched below
	dst = append(binary.AppendUvarint(dst, uint64(len(device))), device...)
	dst = tr.AppendPacked(dst)
	body := dst[start+recordHeaderSize:]
	if len(body) > MaxRecordBytes {
		return dst[:start], fmt.Errorf("segmentlog: record body %d bytes exceeds MaxRecordBytes", len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// openRecord splits body, a version-v segment's record, and opens its
// payload as the trail of its delta-varint block, in the one walk that
// checks a read will serve it; dst takes the unpacking (a version-2 payload
// is the block, which the trail is then a slice of).
func openRecord(dst, body []byte, v byte) (device, unpacked []byte, tr trajstore.Trail, err error) {
	device, payload, err := splitBody(body, v)
	switch {
	case err != nil:
	case v == 2:
		tr, err = trajstore.OpenTrail(payload)
	case v < version:
		dst, tr, err = trajstore.UnpackV4Block(dst, payload)
	default:
		dst, tr, err = trajstore.UnpackBlock(dst, payload)
	}
	return device, dst, tr, err
}

func writeHeader(f vfs.File) error {
	var hdr [headerSize]byte
	copy(hdr[:], magic[:])
	hdr[6] = version
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("segmentlog: %w", err)
	}
	return nil
}
