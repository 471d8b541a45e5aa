// Package trajstore is the on-device trajectory database of Section V-F:
// it stores compressed trajectory segments, serializes them as
// delta-varint blocks of 1e-7° lattice keys (the paper budgets "at least
// 12 bytes storage (latitude, longitude, timestamp)" per GPS sample, which
// WireSize keeps as the unit of the store's size), spatially indexes them,
// and implements the two maintenance procedures — error-bounded merging
// (deduplicating a new segment against similar historical segments) and
// error-bounded ageing (re-compressing old trajectories at a coarser
// tolerance). Durability hangs off two interfaces: Persister, the
// three-method append hook, and Backend, the full durable store the
// ingestion engine runs on (the segmentlog subpackage implements it).
package trajstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/trajcomp/bqs/internal/core"
)

// WireSize is the paper's 12-byte GPS sample — int32 latitude and
// longitude plus a uint32 timestamp — the unit Store.StorageBytes counts
// in; no encoder writes that layout.
const WireSize = 12

// ErrShortBuffer reports a truncated block.
var ErrShortBuffer = errors.New("trajstore: short buffer")

// ErrRange reports a coordinate outside the encodable range.
var ErrRange = errors.New("trajstore: coordinate outside the wire format's range")

// MaxDeviceBytes is the longest device ID a log record stores. The wire
// (proto) and the engine refuse a longer one before any fix of it is
// acked: a trail the log cannot store would degrade the engine for good.
const MaxDeviceBytes = 1<<16 - 1

// ErrDeviceID reports a device ID longer than MaxDeviceBytes.
var ErrDeviceID = fmt.Errorf("trajstore: device ID longer than %d bytes", MaxDeviceBytes)

// GeoKey is a key point in geographic coordinates as stored on the wire.
type GeoKey struct {
	Lat, Lon float64 // degrees
	T        uint32  // seconds since the epoch
}

// DeltaEncode encodes key points as the block the log stores and the wire
// carries: a uvarint count, the first key absolute, then each subsequent
// key as zig-zag varint deltas of the 1e-7-degree coordinates and the
// timestamp. A compressed trajectory takes about 6–8 bytes a key against
// WireSize's 12.
func DeltaEncode(keys []GeoKey) ([]byte, error) { return AppendDelta(nil, keys) }

// AppendDelta appends DeltaEncode(keys) to dst, with no buffer of its own.
func AppendDelta(dst []byte, keys []GeoKey) ([]byte, error) {
	t := Trail{cur: binary.AppendUvarint(dst, uint64(len(keys)))}
	if err := t.Add(keys...); err != nil {
		return nil, err
	}
	return t.cur, nil
}

// InRange reports whether the wire format carries lat, lon (degrees; never NaN, ±Inf).
func InRange(lat, lon float64) bool { return math.Abs(lat) <= 90 && math.Abs(lon) <= 180 }

// lattice puts in-range degrees on the wire's 1e-7° lattice.
func lattice(deg float64) int32 { return int32(math.Round(deg * 1e7)) }

// latticeKey maps wire integers — 1e-7°, whole seconds — back to a key.
func latticeKey(lat, lon int64, t uint32) GeoKey {
	return GeoKey{Lat: float64(lat) / 1e7, Lon: float64(lon) / 1e7, T: t}
}

// Bounds is what a block's keys span on the wire lattice: the box and
// time range a log record is indexed by.
type Bounds struct {
	MinLat, MinLon, MaxLat, MaxLon int32
	T0, T1                         uint32
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
// downstream walks the keys again. Its bytes sit in pages — one growing
// buffer on the heap, fixed ones from a PagePool, the blocks a Join took
// in — and no key spans two. The zero value is an empty trail on the heap.
type Trail struct {
	full     [][]byte  // the pages before cur, in order
	cur      []byte    // the page Add writes: the block's last bytes
	pool     *PagePool // where the pages come from and go back to; nil: the heap
	size, n  int       // the keys' bytes (DeltaEncode's after the count), the keys
	lat, lon int32     // the last key, which the next is stored as a delta from
	t        uint32
	aged     uint32 // the ageing watermark: see Aged
	bounds   Bounds
}

// Add appends keys in order; at one that is off the lattice it stops and
// returns ErrRange.
func (t *Trail) Add(keys ...GeoKey) error {
	for _, k := range keys {
		if !InRange(k.Lat, k.Lon) {
			return ErrRange
		}
		t.add(lattice(k.Lat), lattice(k.Lon), k.T)
	}
	return nil
}

// add appends a lattice key: a block's first absolute (its time unsigned),
// the others as deltas from the key before.
func (t *Trail) add(lat, lon int32, ts uint32) {
	if t.pool != nil && cap(t.cur)-len(t.cur) < maxKeyBytes {
		if t.cur != nil {
			t.full = append(t.full, t.cur)
		}
		t.cur = t.pool.get()
	}
	body := t.cur
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
	t.size += len(body) - len(t.cur)
	t.cur, t.lat, t.lon, t.t = body, lat, lon, ts
	t.n++
}

// Restart begins the next chunk in the first page, giving back the rest:
// the trail becomes its own last key — the one consecutive chunks share —
// taken from the lattice, not recomputed from floats. It must have held one.
func (t *Trail) Restart() {
	first := t.cur
	if len(t.full) > 0 {
		first, t.full = t.full[0], t.full[1:]
		t.Release()
	}
	t.cur, t.size, t.n, t.aged = first[:0], 0, 0, 0
	t.add(t.lat, t.lon, t.t)
}

// Take returns the trail with its pages, for a holder that outlives the
// builder's next write, and leaves t empty but able to Restart.
func (t *Trail) Take() Trail {
	out := *t
	t.full, t.cur, t.size, t.n, t.aged = nil, nil, 0, 0, 0
	return out
}

// Release gives the trail's pages back to its pool — the log has its
// bytes, or nobody wants them — and leaves it empty but able to Restart.
func (t *Trail) Release() {
	for _, pg := range t.full {
		t.pool.put(pg)
	}
	t.pool.put(t.cur)
	t.Take()
}

// Len counts the keys, Size their bytes; Bounds needs Len > 0 to mean anything.
func (t *Trail) Len() int       { return t.n }
func (t *Trail) Size() int      { return t.size }
func (t *Trail) Bounds() Bounds { return t.bounds }

// Aged is the trail's ageing watermark, which SetAged sets: its leading
// keys at or before this time have been re-compressed at a log's coarse
// tolerance — the longest such run — and no later key has; 0 for none.
// Only a log's compaction sets it, and a packed block carries it.
func (t *Trail) Aged() uint32      { return t.aged }
func (t *Trail) SetAged(ts uint32) { t.aged = ts }

// Pages counts the pages a pooled trail has out of its pool.
func (t *Trail) Pages() int { return len(t.full) + min(cap(t.cur), 1) }

// AppendBlock appends the trail as DeltaEncode writes it — count, then
// keys — growing dst once: the one way a pooled page's bytes leave it.
func (t *Trail) AppendBlock(dst []byte) []byte {
	dst = binary.AppendUvarint(slices.Grow(dst, binary.MaxVarintLen64+t.size), uint64(t.n))
	for _, pg := range t.full {
		dst = append(dst, pg...)
	}
	return append(dst, t.cur...)
}

// Cursor reads the trail's keys back, at wire resolution.
func (t *Trail) Cursor() Cursor { return Cursor{pages: t.full, last: t.cur, left: t.n, first: true} }

// Keys decodes the trail into a slice the caller may keep.
func (t *Trail) Keys() []GeoKey {
	c := t.Cursor()
	keys, _ := c.decode(make([]GeoKey, 0, t.n), t.n, true, nil) // Add built the block, so it parses
	return keys
}

// OpenTrail reads a stored block back as the trail that built it, in one
// walk that checks what Add checked: the block parses and every key is on
// the globe (ErrRange otherwise). Bytes past the last key are dropped; the
// trail is one heap page, block's bytes, until it grows.
func OpenTrail(block []byte) (Trail, error) {
	t, _, err := walkBlock(block, nil)
	return t, err
}

// Join appends next — a chunk that restarts from t's last key — to t,
// keeping the shared key once: next's pages follow t's, the first without
// that key, and a pooled next is left empty. It reports false, t
// untouched, when next does not start there, is another pool's, or is
// aged while t is not aged through its last key: aged keys are a prefix
// (Aged), the join's watermark the later of the two. next's deltas hang
// off that key, so the result is DeltaEncode of the keys.
func (t *Trail) Join(next *Trail) bool {
	c := next.Cursor()
	if _, err := c.decode(nil, 1, false, nil); t.n == 0 || err != nil || t.pool != next.pool ||
		c.lat != int64(t.lat) || c.lon != int64(t.lon) || c.t != int64(t.t) || next.aged > 0 && t.bounds.T1 > t.aged {
		return false
	}
	t.aged = max(t.aged, next.aged)
	full, cur := append(append(t.full, t.cur), next.full...), next.cur
	head := &cur // next's first page, whose first key t has
	if len(next.full) > 0 {
		head = &full[len(t.full)+1]
	}
	skip := len(*head) - len(c.b)
	t.size, t.n = t.size+next.size-skip, t.n+next.n-1
	t.lat, t.lon, t.t = next.lat, next.lon, next.t
	t.bounds.Union(next.bounds)
	if t.pool != nil { // a pooled page keeps its start: the pool takes it back by it
		*head = (*head)[:copy(*head, (*head)[skip:])]
		next.Take() // its pages are t's now
	} else {
		*head = (*head)[skip:]
		cur = cur[:len(cur):len(cur)] // t's next Add copies: the spare room is next's
	}
	t.full, t.cur = full, cur
	return true
}

// Contains reports whether o's keys appear as a contiguous run of t's; an
// empty trail is contained in nothing.
func (t *Trail) Contains(o *Trail) bool {
	for c := t.Cursor(); o.n > 0 && c.left >= o.n; {
		if sameRun(c, o.Cursor()) {
			return true
		}
		if _, err := c.decode(nil, 1, false, nil); err != nil {
			return false
		}
	}
	return false
}

// sameRun reports whether a's next keys are all of b's, on copies of both.
func sameRun(a, b Cursor) bool {
	for b.left > 0 {
		_, errA := a.decode(nil, 1, false, nil)
		_, errB := b.decode(nil, 1, false, nil)
		if errA != nil || errB != nil || a.lat != b.lat || a.lon != b.lon || a.t != b.t {
			return false
		}
	}
	return true
}

// Block is one run of a device's key points as storage holds it and the
// wire carries it: the keys' time bounds and their delta-varint block — a
// log record, CRC-verified and walked (Enters), or a trail no record holds
// yet. Nobody writes a Payload once it is handed over — a fresh pread, a
// read cache's entry or a copy of the read's own — so a visitor may keep it.
type Block struct {
	Device  string
	T0, T1  uint32
	Payload []byte
}

// Contains reports whether o's key points are a run of b's, on the same
// device (Trail.Contains): a read that has served b has served o.
func (b Block) Contains(o Block) bool {
	if b.Device != o.Device || o.T0 < b.T0 || o.T1 > b.T1 {
		return false
	}
	t, err := OpenTrail(b.Payload)
	ot, oerr := OpenTrail(o.Payload)
	return err == nil && oerr == nil && t.Contains(&ot)
}

// Cursor walks a delta-varint block key by key: the one reader, under
// DeltaDecode, OpenTrail, Enters and a Trail's read-back alike.
type Cursor struct {
	b, last     []byte   // unread bytes of the page being read; a trail's last page
	pages       [][]byte // a trail's pages before last, those not begun
	left        int      // keys not yet read
	lat, lon, t int64    // the last key read, on the lattice
	first       bool     // the next key is the block's first
}

// Next reads the next key, at wire resolution; false at the end or bad bytes.
func (c *Cursor) Next() (k GeoKey, ok bool) {
	if ok = c.left > 0; ok {
		one := [1]GeoKey{}
		_, err := c.decode(one[:0], 1, true, nil)
		k, ok = one[0], err == nil
	}
	return k, ok
}

// Window is a query window on the wire lattice — 1e-7°, whole seconds —
// bounds inclusive; int64, so that one wider than any key need not wrap.
type Window struct{ MinLat, MinLon, MaxLat, MaxLon, T0, T1 int64 }

// LatticeWindow puts [minLon, maxLon] × [minLat, maxLat] (degrees) during
// [t0, t1] on the lattice, so that comparing a key's lattice integers with
// it is comparing the key's degrees with the float bounds. It is the one
// rule on a caller's window — no bound NaN, nothing inverted — for the log
// and the engine's tails alike; its errors keep the text, and so the log's
// name, that a client of the wire has always been sent.
func LatticeWindow(minLon, minLat, maxLon, maxLat float64, t0, t1 uint32) (Window, error) {
	if math.IsNaN(minLon) || math.IsNaN(minLat) || math.IsNaN(maxLon) || math.IsNaN(maxLat) {
		return Window{}, errors.New("segmentlog: window bounds must not be NaN")
	}
	if minLon > maxLon || minLat > maxLat || t0 > t1 {
		return Window{}, fmt.Errorf("segmentlog: inverted window [%g,%g]×[%g,%g] t[%d,%d]", minLon, maxLon, minLat, maxLat, t0, t1)
	}
	return Window{-atMost(-minLat), -atMost(-minLon), atMost(maxLat), atMost(maxLon), int64(t0), int64(t1)}, nil
}

// atMost returns the largest lattice value whose degrees — float64(i)/1e7,
// as latticeKey computes them — are ≤ x, so i ≤ atMost(x) is that float
// comparison for every in-range i; by symmetry -atMost(-x) is the smallest
// with degrees ≥ x. x*1e7 is exact to 2^-22 once clamped to ±2^31 (beyond
// any key), which leaves the answer within one of its floor.
func atMost(x float64) int64 {
	i := int64(math.Floor(max(-1<<31, min(x*1e7, 1<<31))))
	switch {
	case float64(i+1)/1e7 <= x:
		i++
	case float64(i)/1e7 > x:
		i--
	}
	return i
}

// Meets reports whether bounds b — a record's, or a segment's union — can
// hold a key pair inside the window: the boxes intersect and the time
// spans overlap.
func (w *Window) Meets(b Bounds) bool {
	return int64(b.T0) <= w.T1 && int64(b.T1) >= w.T0 &&
		int64(b.MinLon) <= w.MaxLon && int64(b.MaxLon) >= w.MinLon &&
		int64(b.MinLat) <= w.MaxLat && int64(b.MaxLat) >= w.MinLat
}

// MeetsPair is Meets for the segment between two keys, put on the lattice
// as Trail.Add puts them.
func (w *Window) MeetsPair(a, b GeoKey) bool {
	alat, alon, blat, blon := lattice(a.Lat), lattice(a.Lon), lattice(b.Lat), lattice(b.Lon)
	return w.Meets(Bounds{min(alat, blat), min(alon, blon), max(alat, blat), max(alon, blon), min(a.T, b.T), max(a.T, b.T)})
}

// walk is what a cursor notes about the keys it steps over, for readers
// that keep none: the box they span — a Window, so that keys off the globe
// fit — and, when seeking one, whether a consecutive pair of them meets win.
type walk struct {
	box, win  Window
	seek, hit bool
}

// walkBlock is the one pass under OpenTrail and Enters: the trail block
// was, and whether a consecutive pair of its keys meets win.
func walkBlock(block []byte, win *Window) (t Trail, hit bool, err error) {
	c, err := BlockCursor(block)
	if err != nil {
		return t, false, err
	}
	var wk walk
	if win != nil {
		wk.win, wk.seek = *win, true
	}
	body, n := c.b, c.left
	if _, err = c.decode(nil, n, false, &wk); err != nil {
		return t, false, err
	}
	b := wk.box
	if !onGlobe(b) {
		return t, false, ErrRange
	}
	used := len(body) - len(c.b)
	return Trail{cur: body[:used:used], size: used, n: n, lat: int32(c.lat), lon: int32(c.lon), t: uint32(c.t),
		bounds: Bounds{int32(b.MinLat), int32(b.MinLon), int32(b.MaxLat), int32(b.MaxLon), uint32(b.T0), uint32(b.T1)}}, wk.hit, nil
}

// Enters walks a stored block once and reports whether it enters w: some
// consecutive pair of its keys spans a box that intersects the window
// during a time span that overlaps it — the per-segment test of the
// in-memory ground truth (Store Query ∩ QueryTime), on lattice integers,
// so a block of fewer than two keys enters nothing. A nil w asks only
// that the block be one a read may serve: it parses, its times fit the
// wire and its keys lie on the globe.
func Enters(block []byte, w *Window) (bool, error) {
	_, hit, err := walkBlock(block, w)
	return err == nil && (w == nil || hit), err
}

// BlockCursor opens a DeltaEncode payload for Next: the count, then the keys.
func BlockCursor(b []byte) (Cursor, error) {
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
// set and noting where they go in wk when it is not nil; an error leaves
// the cursor where it was. Coordinates are not range-checked (deltas can
// walk them off the globe; a walk notes where they went); the time must fit
// the wire.
func (c *Cursor) decode(dst []GeoKey, n int, keep bool, wk *walk) ([]GeoKey, error) {
	b, pages, last, left, lat, lon, t, first := c.b, c.pages, c.last, c.left-n, c.lat, c.lon, c.t, c.first
	for ; n > 0; n-- {
		for len(b) == 0 && len(pages) > 0 { // between keys: no key spans two pages
			b, pages = pages[0], pages[1:]
		}
		if len(b) == 0 {
			b, last = last, nil
		}
		plat, plon, pt, was := lat, lon, t, first
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
		switch {
		case wk == nil:
		case was:
			wk.box = Window{lat, lon, lat, lon, t, t}
		default:
			x := &wk.box
			x.MinLat, x.MinLon, x.T0 = min(x.MinLat, lat), min(x.MinLon, lon), min(x.T0, t)
			x.MaxLat, x.MaxLon, x.T1 = max(x.MaxLat, lat), max(x.MaxLon, lon), max(x.T1, t)
			wk.hit = wk.hit || wk.seek &&
				min(plat, lat) <= wk.win.MaxLat && max(plat, lat) >= wk.win.MinLat &&
				min(plon, lon) <= wk.win.MaxLon && max(plon, lon) >= wk.win.MinLon &&
				min(pt, t) <= wk.win.T1 && max(pt, t) >= wk.win.T0
		}
		if keep {
			dst = append(dst, latticeKey(lat, lon, uint32(t)))
		}
	}
	c.b, c.pages, c.last, c.left, c.lat, c.lon, c.t, c.first = b, pages, last, left, lat, lon, t, first
	return dst, nil
}

// onGlobe reports whether a walk's box, on the lattice, lies within
// ±90°/±180° — the keys Add takes. The zero box, an empty walk's, does.
func onGlobe(b Window) bool {
	return b.MinLat >= -90e7 && b.MaxLat <= 90e7 && b.MinLon >= -180e7 && b.MaxLon <= 180e7
}

// DeltaDecode inverts DeltaEncode: in the same walk it refuses, with
// ErrRange, a block whose deltas take a key off the globe, as OpenTrail does.
func DeltaDecode(b []byte) ([]GeoKey, error) {
	c, err := BlockCursor(b)
	if err != nil {
		return nil, err
	}
	var wk walk
	keys, err := c.decode(make([]GeoKey, 0, c.left), c.left, true, &wk)
	if err == nil && !onGlobe(wk.box) {
		return nil, ErrRange
	}
	return keys, err
}

// MetersPerDegree is the one flat factor between the projected metric
// plane the compressors bound their error in and the wire format's
// degrees. The three functions below are the only code that applies it:
// the engine persists and refuses with them, the server maps wire fixes
// back with them and compaction ages in the plane they define, so the
// three cannot disagree. GeoKeys quantize at 1e-7°, so positions are stored
// at 1 cm resolution with a ±9000 km range. The plane is flat: off the
// equator a metre of X is not a metre east–west (DESIGN.md, "The contract").
const MetersPerDegree = 1e5

// PlanePoint maps a wire key into the metric plane: X from the longitude,
// Y from the latitude. PlaneKey of the result quantizes back to the same
// key of the wire's lattice.
func PlanePoint(k GeoKey) core.Point {
	return core.Point{X: k.Lon * MetersPerDegree, Y: k.Lat * MetersPerDegree, T: float64(k.T)}
}

// PlaneKey maps a plane point to the key the wire carries for it, before
// quantization; the time goes through WireSeconds.
func PlaneKey(p core.Point) GeoKey {
	return GeoKey{Lat: p.Y / MetersPerDegree, Lon: p.X / MetersPerDegree, T: WireSeconds(p.T)}
}

// InPlane reports whether the wire format carries p's position: InRange of
// its PlaneKey, so never for NaN or ±Inf.
func InPlane(p core.Point) bool { return InRange(p.Y/MetersPerDegree, p.X/MetersPerDegree) }

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
