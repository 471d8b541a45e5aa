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
	if !InRange(k.Lat, k.Lon) {
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
	return latticeKey(int64(lat), int64(lon), t), nil
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
func DeltaEncode(keys []GeoKey) ([]byte, error) { return AppendDelta(nil, keys) }

// AppendDelta appends DeltaEncode(keys) to dst, with no buffer of its own.
func AppendDelta(dst []byte, keys []GeoKey) ([]byte, error) {
	t := Trail{body: binary.AppendUvarint(dst, uint64(len(keys)))}
	if err := t.Add(keys...); err != nil {
		return nil, err
	}
	return t.body, nil
}

// InRange reports whether the wire format carries lat, lon (degrees; never NaN, ±Inf).
func InRange(lat, lon float64) bool { return math.Abs(lat) <= 90 && math.Abs(lon) <= 180 }

// latticeKey maps wire integers — 1e-7°, whole seconds — back to a key.
func latticeKey(lat, lon int64, t uint32) GeoKey {
	return GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}
}

// Bounds is what a block's keys span on the wire lattice: the box and
// time range a log record's header carries.
type Bounds struct {
	MinLat, MinLon, MaxLat, MaxLon int32
	T0, T1                         uint32
}

// Min and Max are the box's corners.
func (b Bounds) Min() GeoKey { return latticeKey(int64(b.MinLat), int64(b.MinLon), b.T0) }
func (b Bounds) Max() GeoKey { return latticeKey(int64(b.MaxLat), int64(b.MaxLon), b.T1) }

// Valid reports that neither the box nor the time range is inverted.
func (b Bounds) Valid() bool {
	return b.T0 <= b.T1 && b.MinLat <= b.MaxLat && b.MinLon <= b.MaxLon
}

// Union widens b to cover o.
func (b *Bounds) Union(o Bounds) {
	b.MinLat, b.MaxLat = min(b.MinLat, o.MinLat), max(b.MaxLat, o.MaxLat)
	b.MinLon, b.MaxLon = min(b.MinLon, o.MinLon), max(b.MaxLon, o.MaxLon)
	b.T0, b.T1 = min(b.T0, o.T0), max(b.T1, o.T1)
}

// Trail is a run of key points held as the delta-varint block the log
// stores and the wire carries. It is the one encoder: Add quantizes a key
// to the lattice, appends its varints and widens the bounds, so nothing
// downstream walks the keys again. The zero value is an empty trail.
type Trail struct {
	body     []byte // the keys' varints: DeltaEncode's bytes after the count
	n        int
	lat, lon int32 // the last key, which the next is stored as a delta from
	t        uint32
	bounds   Bounds
}

// Add appends keys in order; at one that is off the lattice it stops and
// returns ErrRange.
func (t *Trail) Add(keys ...GeoKey) error {
	for _, k := range keys {
		if !InRange(k.Lat, k.Lon) {
			return ErrRange
		}
		t.add(int32(math.Round(k.Lat*1e7)), int32(math.Round(k.Lon*1e7)), k.T)
	}
	return nil
}

// add appends a lattice key: a block's first absolute (its time unsigned),
// the others as deltas from the key before.
func (t *Trail) add(lat, lon int32, ts uint32) {
	body := t.body
	if t.n == 0 {
		body = binary.AppendVarint(body, int64(lat))
		body = binary.AppendVarint(body, int64(lon))
		body = binary.AppendUvarint(body, uint64(ts))
		t.bounds = Bounds{lat, lon, lat, lon, ts, ts}
	} else {
		body = binary.AppendVarint(body, int64(lat)-int64(t.lat))
		body = binary.AppendVarint(body, int64(lon)-int64(t.lon))
		body = binary.AppendVarint(body, int64(ts)-int64(t.t))
		t.bounds.Union(Bounds{lat, lon, lat, lon, ts, ts})
	}
	t.body, t.lat, t.lon, t.t = body, lat, lon, ts
	t.n++
}

// Restart begins the next chunk in the same buffer: the trail becomes its
// own last key — the one consecutive chunks share — taken from the
// lattice, not recomputed from floats. The trail must have held a key.
func (t *Trail) Restart() {
	lat, lon := t.lat, t.lon
	t.body, t.n = t.body[:0], 0
	t.add(lat, lon, t.t)
}

// Take returns the trail with its buffer, for a holder that outlives the
// builder's next write, and leaves t empty but able to Restart.
func (t *Trail) Take() Trail {
	out := *t
	t.body, t.n = nil, 0
	return out
}

// Len counts the keys, Size their bytes; Bounds needs Len > 0 to mean anything.
func (t *Trail) Len() int       { return t.n }
func (t *Trail) Size() int      { return len(t.body) }
func (t *Trail) Bounds() Bounds { return t.bounds }

// AppendBlock appends the trail as DeltaEncode writes it: count, then keys.
func (t *Trail) AppendBlock(dst []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(t.n)), t.body...)
}

// Cursor reads the trail's keys back, at wire resolution.
func (t *Trail) Cursor() Cursor { return Cursor{b: t.body, left: t.n, first: true} }

// Keys decodes the trail into a slice the caller may keep.
func (t *Trail) Keys() []GeoKey {
	c := t.Cursor()
	keys, _ := c.decode(make([]GeoKey, 0, t.n), t.n, true) // Add built the block, so it parses
	return keys
}

// Cursor walks a delta-varint block key by key: the one reader, under
// DeltaDecode, DeltaValidate and a Trail's read-back alike.
type Cursor struct {
	b           []byte // unread bytes
	left        int    // keys not yet read
	lat, lon, t int64  // the last key read, on the lattice
	first       bool   // the next key is the block's first
}

// blockCursor opens a DeltaEncode payload: the count, then the keys.
func blockCursor(b []byte) (Cursor, error) {
	n, off := binary.Uvarint(b)
	if off <= 0 {
		return Cursor{}, ErrShortBuffer
	}
	if n > uint64(len(b)) { // a record needs ≥ 3 bytes; cheap sanity cap
		return Cursor{}, fmt.Errorf("trajstore: implausible count %d", n)
	}
	return Cursor{b: b[off:], left: int(n), first: true}, nil
}

// decode steps over the next n keys, appending them to dst when keep is
// set; an error leaves the cursor where it was. Coordinates are not
// range-checked (deltas can walk them off the globe); the time must fit
// the wire.
func (c *Cursor) decode(dst []GeoKey, n int, keep bool) ([]GeoKey, error) {
	b, left, lat, lon, t, first := c.b, c.left-n, c.lat, c.lon, c.t, c.first
	for ; n > 0; n-- {
		dlat, w1 := binary.Varint(b)
		if w1 <= 0 {
			return nil, ErrShortBuffer
		}
		dlon, w2 := binary.Varint(b[w1:])
		if w2 <= 0 {
			return nil, ErrShortBuffer
		}
		dt, w3 := int64(0), 0
		if first {
			var tu uint64
			tu, w3 = binary.Uvarint(b[w1+w2:])
			dt, first = int64(tu), false
		} else {
			dt, w3 = binary.Varint(b[w1+w2:])
		}
		if w3 <= 0 {
			return nil, ErrShortBuffer
		}
		if t += dt; t < 0 || t > math.MaxUint32 {
			return nil, ErrRange
		}
		b, lat, lon = b[w1+w2+w3:], lat+dlat, lon+dlon
		if keep {
			dst = append(dst, latticeKey(lat, lon, uint32(t)))
		}
	}
	c.b, c.left, c.lat, c.lon, c.t, c.first = b, left, lat, lon, t, first
	return dst, nil
}

// Next decodes the next key; a block has as many as its count says.
func (c *Cursor) Next() (GeoKey, error) {
	_, err := c.decode(nil, 1, false)
	return latticeKey(c.lat, c.lon, uint32(c.t)), err
}

// DeltaDecode inverts DeltaEncode.
func DeltaDecode(b []byte) ([]GeoKey, error) {
	c, err := blockCursor(b)
	if err != nil {
		return nil, err
	}
	return c.decode(make([]GeoKey, 0, c.left), c.left, true)
}

// DeltaValidate reports whether b is a structurally valid DeltaEncode
// payload — exactly the checks DeltaDecode applies, without
// materializing the key points. The segment log uses it during
// recovery scans so an indexed record is always servable: a CRC can be
// forged byte-by-byte (coverage-guided fuzzers do), but a record whose
// payload does not parse must be treated as torn, not indexed and then
// failed at read time.
func DeltaValidate(b []byte) bool {
	c, err := blockCursor(b)
	if err == nil {
		_, err = c.decode(nil, c.left, false)
	}
	return err == nil
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

// PointKeysToGeo is a convenience for tests and tools (the engine's
// sessions put each key point on the lattice as they emit it, see Trail):
// it treats projected metric points as if they were micro-degree
// coordinates scaled by the given factors. Real deployments should project
// properly via the geo package; the store itself is coordinate-agnostic.
func PointKeysToGeo(keys []core.Point, mPerLat, mPerLon float64) []GeoKey {
	out := make([]GeoKey, len(keys))
	for i, k := range keys {
		out[i] = GeoKey{Lat: k.Y / mPerLat, Lon: k.X / mPerLon, T: WireSeconds(k.T)}
	}
	return out
}
