// Package trajstore is the on-device trajectory database of Section V-F:
// it stores compressed trajectory segments, serializes them in the
// 12-byte-per-sample wire format the paper budgets for ("Each GPS sample
// requires at least 12 bytes storage (latitude, longitude, timestamp)"),
// spatially indexes them, and implements the two maintenance procedures —
// error-bounded merging (deduplicating a new segment against similar
// historical segments) and error-bounded ageing (re-compressing old
// trajectories at a coarser tolerance). Durability hangs off two
// interfaces: Persister, the three-method append hook, and Backend, the
// full durable store the ingestion engine runs on (the segmentlog
// subpackage implements it).
package trajstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/trajcomp/bqs/internal/core"
)

// WireSize is the encoded size of one key point: int32 latitude and
// longitude in 1e-7 degrees plus a uint32 timestamp in seconds — the
// paper's 12-byte GPS sample.
const WireSize = 12

// ErrShortBuffer reports a truncated wire record.
var ErrShortBuffer = errors.New("trajstore: short buffer")

// ErrRange reports a coordinate outside the encodable range.
var ErrRange = errors.New("trajstore: coordinate outside the wire format's range")

// GeoKey is a key point in geographic coordinates as stored on the wire.
type GeoKey struct {
	Lat, Lon float64 // degrees
	T        uint32  // seconds since the epoch
}

// EncodeGeoKey appends the 12-byte wire form of k to dst.
func EncodeGeoKey(dst []byte, k GeoKey) ([]byte, error) {
	if math.Abs(k.Lat) > 90 || math.Abs(k.Lon) > 180 ||
		math.IsNaN(k.Lat) || math.IsNaN(k.Lon) {
		return dst, ErrRange
	}
	var buf [WireSize]byte
	binary.LittleEndian.PutUint32(buf[0:4], uint32(int32(math.Round(k.Lat*1e7))))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(int32(math.Round(k.Lon*1e7))))
	binary.LittleEndian.PutUint32(buf[8:12], k.T)
	return append(dst, buf[:]...), nil
}

// DecodeGeoKey decodes one wire record from b.
func DecodeGeoKey(b []byte) (GeoKey, error) {
	if len(b) < WireSize {
		return GeoKey{}, ErrShortBuffer
	}
	lat := int32(binary.LittleEndian.Uint32(b[0:4]))
	lon := int32(binary.LittleEndian.Uint32(b[4:8]))
	t := binary.LittleEndian.Uint32(b[8:12])
	return GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}, nil
}

// EncodeTrajectory encodes a compressed trajectory (its key points) into
// the wire format: a uint32 count followed by count records.
func EncodeTrajectory(keys []GeoKey) ([]byte, error) {
	out := make([]byte, 4, 4+len(keys)*WireSize)
	binary.LittleEndian.PutUint32(out, uint32(len(keys)))
	var err error
	for _, k := range keys {
		out, err = EncodeGeoKey(out, k)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeTrajectory decodes a wire-format trajectory and returns the key
// points and the number of bytes consumed.
func DecodeTrajectory(b []byte) ([]GeoKey, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrShortBuffer
	}
	n := int(binary.LittleEndian.Uint32(b))
	need := 4 + n*WireSize
	if len(b) < need {
		return nil, 0, ErrShortBuffer
	}
	keys := make([]GeoKey, n)
	off := 4
	for i := 0; i < n; i++ {
		k, err := DecodeGeoKey(b[off:])
		if err != nil {
			return nil, 0, err
		}
		keys[i] = k
		off += WireSize
	}
	return keys, off, nil
}

// DeltaEncode encodes key points with varint deltas (an extension beyond
// the paper's fixed 12-byte format): the first record is absolute, then
// each subsequent record stores zig-zag varint deltas of the 1e-7-degree
// coordinates and the timestamp. Typical compressed trajectories shrink by
// another ~40-60%.
func DeltaEncode(keys []GeoKey) ([]byte, error) {
	var out []byte
	out = binary.AppendUvarint(out, uint64(len(keys)))
	var pLat, pLon int64
	var pT uint32
	for i, k := range keys {
		if math.Abs(k.Lat) > 90 || math.Abs(k.Lon) > 180 ||
			math.IsNaN(k.Lat) || math.IsNaN(k.Lon) {
			return nil, ErrRange
		}
		lat := int64(math.Round(k.Lat * 1e7))
		lon := int64(math.Round(k.Lon * 1e7))
		if i == 0 {
			out = binary.AppendVarint(out, lat)
			out = binary.AppendVarint(out, lon)
			out = binary.AppendUvarint(out, uint64(k.T))
		} else {
			out = binary.AppendVarint(out, lat-pLat)
			out = binary.AppendVarint(out, lon-pLon)
			out = binary.AppendVarint(out, int64(k.T)-int64(pT))
		}
		pLat, pLon, pT = lat, lon, k.T
	}
	return out, nil
}

// DeltaDecode inverts DeltaEncode.
func DeltaDecode(b []byte) ([]GeoKey, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return nil, ErrShortBuffer
	}
	if n > uint64(len(b)) { // a record needs ≥ 3 bytes; cheap sanity cap
		return nil, fmt.Errorf("trajstore: implausible count %d", n)
	}
	keys := make([]GeoKey, 0, n)
	var pLat, pLon int64
	var pT int64
	pos := off
	for i := uint64(0); i < n; i++ {
		lat, w1 := binary.Varint(b[pos:])
		if w1 <= 0 {
			return nil, ErrShortBuffer
		}
		pos += w1
		lon, w2 := binary.Varint(b[pos:])
		if w2 <= 0 {
			return nil, ErrShortBuffer
		}
		pos += w2
		var t int64
		if i == 0 {
			tu, w3 := binary.Uvarint(b[pos:])
			if w3 <= 0 {
				return nil, ErrShortBuffer
			}
			pos += w3
			t = int64(tu)
		} else {
			dt, w3 := binary.Varint(b[pos:])
			if w3 <= 0 {
				return nil, ErrShortBuffer
			}
			pos += w3
			t = pT + dt
			lat += pLat
			lon += pLon
		}
		if t < 0 || t > math.MaxUint32 {
			return nil, ErrRange
		}
		keys = append(keys, GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: uint32(t)})
		pLat, pLon, pT = lat, lon, t
	}
	return keys, nil
}

// DeltaValidate reports whether b is a structurally valid DeltaEncode
// payload — exactly the checks DeltaDecode applies, without
// materializing the key points. The segment log uses it during
// recovery scans so an indexed record is always servable: a CRC can be
// forged byte-by-byte (coverage-guided fuzzers do), but a record whose
// payload does not parse must be treated as torn, not indexed and then
// failed at read time.
func DeltaValidate(b []byte) bool {
	n, off := binary.Uvarint(b)
	if off <= 0 || n > uint64(len(b)) {
		return false
	}
	pos := off
	var pT int64
	for i := uint64(0); i < n; i++ {
		_, w1 := binary.Varint(b[pos:])
		if w1 <= 0 {
			return false
		}
		pos += w1
		_, w2 := binary.Varint(b[pos:])
		if w2 <= 0 {
			return false
		}
		pos += w2
		var t int64
		if i == 0 {
			tu, w3 := binary.Uvarint(b[pos:])
			if w3 <= 0 {
				return false
			}
			pos += w3
			t = int64(tu)
		} else {
			dt, w3 := binary.Varint(b[pos:])
			if w3 <= 0 {
				return false
			}
			pos += w3
			t = pT + dt
		}
		if t < 0 || t > math.MaxUint32 {
			return false
		}
		pT = t
	}
	return true
}

// MetersPerDegree is the one flat factor between the projected metric
// plane the compressors bound their error in and the wire format's
// degrees: the engine persists with it, the server maps wire fixes back
// with it and compaction ages in the plane it defines, so the three
// cannot disagree. GeoKeys quantize at 1e-7°, so positions are stored at
// 1 cm resolution with a ±9000 km range.
const MetersPerDegree = 1e5

// WireSeconds clamps a metric-plane timestamp to the wire format's uint32
// seconds; the fraction is dropped and NaN reads as 0. An out-of-range
// float→uint32 conversion is implementation-defined in Go, so everything
// that puts a caller's float64 time on the wire goes through here.
func WireSeconds(t float64) uint32 {
	switch {
	case !(t > 0):
		return 0
	case t >= math.MaxUint32:
		return math.MaxUint32
	}
	return uint32(t)
}

// PointKeysToGeo is a convenience for tests and tools: it treats projected
// metric points as if they were micro-degree coordinates scaled by the
// given factors. Real deployments should project properly via the geo
// package; the store itself is coordinate-agnostic.
func PointKeysToGeo(keys []core.Point, mPerLat, mPerLon float64) []GeoKey {
	out := make([]GeoKey, len(keys))
	for i, k := range keys {
		out[i] = GeoKey{Lat: k.Y / mPerLat, Lon: k.X / mPerLon, T: WireSeconds(k.T)}
	}
	return out
}
