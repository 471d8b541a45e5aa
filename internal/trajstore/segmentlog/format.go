// The segment file format: the file header and the record framing, written
// (frameRecord) and parsed (nextRecord, splitBody) in one place.
package segmentlog

import (
	"encoding/binary"
	"errors"
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

// minBodySize is the smallest legal body: device length prefix (may be
// zero bytes of ID), both time bounds, the 16-byte bounding box, and a
// ≥1-byte payload (the key count).
const minBodySize = 2 + 4 + 4 + 16 + 1

// splitBody splits a validated record body into its fields, slices of it.
func splitBody(body []byte) (device []byte, b trajstore.Bounds, payload []byte, err error) {
	if len(body) < minBodySize {
		return nil, b, nil, trajstore.ErrShortBuffer
	}
	devLen := int(binary.LittleEndian.Uint16(body))
	rest := body[2:]
	if len(rest) < devLen+boundsSize+1 {
		return nil, b, nil, trajstore.ErrShortBuffer
	}
	u, h := binary.LittleEndian.Uint32, rest[devLen:]
	b = trajstore.Bounds{T0: u(h), T1: u(h[4:]),
		MinLat: int32(u(h[8:])), MinLon: int32(u(h[12:])), MaxLat: int32(u(h[16:])), MaxLon: int32(u(h[20:]))}
	if !b.Valid() {
		return nil, b, nil, errors.New("segmentlog: inverted record bounds")
	}
	return rest[:devLen], b, rest[devLen+boundsSize:], nil
}

// boundsSize is a record's bounds as its header carries them: u32 t0, t1,
// then the box as 4 × i32 minLat, minLon, maxLat, maxLon.
const boundsSize = 8 + 16

// frameRecord appends the full wire form of one record — length prefix,
// CRC, header, the trail's packed block — to dst; on an error dst comes
// back as it was. Shared by the append path and the compactor so the two
// can never drift apart on format. b is the caller's: the trail's own bounds,
// except that the compactor keeps a record's indexed time span when
// ageing thins its keys.
func frameRecord(dst []byte, device string, b trajstore.Bounds, tr *trajstore.Trail) ([]byte, error) {
	if len(device) > int(^uint16(0)) {
		return dst, fmt.Errorf("segmentlog: device ID longer than %d bytes", ^uint16(0))
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // bodyLen and CRC, backpatched below
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(device)))
	dst = append(dst, device...)
	for _, v := range [...]uint32{b.T0, b.T1, uint32(b.MinLat), uint32(b.MinLon), uint32(b.MaxLat), uint32(b.MaxLon)} {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	dst = tr.AppendPacked(dst)
	body := dst[start+recordHeaderSize:]
	if len(body) > MaxRecordBytes {
		return dst[:start], fmt.Errorf("segmentlog: record body %d bytes exceeds MaxRecordBytes", len(body))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// validPayload reports whether a read will serve payload; scratch: its unpacking.
func validPayload(payload []byte, legacy bool, scratch *[]byte) bool {
	if legacy {
		return trajstore.DeltaValidate(payload)
	}
	var err error
	*scratch, err = trajstore.UnpackBlock((*scratch)[:0], payload)
	return err == nil
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
