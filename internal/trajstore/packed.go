// The packed block: how a segment log record holds a trail on disk —
// DeltaEncode's block with each later key coded in its predecessor's frame
// and Rice-coded. AppendPacked writes it, UnpackBlock turns it back into
// that block and its trail; UnpackV4Block reads segment versions 3 and 4's.
package trajstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	riceEscape = 32              // a quotient this large is escaped: riceEscape one bits, then the value's 64
	escapeBits = riceEscape + 64 // what an escape costs, the most any code does
	maxRiceK   = 24              // so that a code, unless escaped, fits the 56 bits a load brings
	flagFOR    = 1 << 5          // in a field's head byte: its least follows, a code is the value less it, unsigned
	flagAged   = 1 << 7          // in the first field's head byte: the ageing watermark follows
)

// turn maps a step (x, y) — Δlon, Δlat — into the frame whose +x is heading
// h (0 east, 1 north, 2 west, 3 south): a rotation by −90°·h, exact on
// integers; unturn inverts it. quarter swaps x and y if swap is 1, then
// negates the first if na is 1 and the second if nb is 1, with no branch: a
// trajectory's headings follow no pattern a predictor learns.
func turn(h byte, x, y int64) (int64, int64)   { return quarter(x, y, h&1, h>>1, (h^h>>1)&1) }
func unturn(h byte, x, y int64) (int64, int64) { return quarter(x, y, h&1, (h^h>>1)&1, h>>1) }

func quarter(x, y int64, swap, na, nb byte) (int64, int64) {
	m, ma, mb := (x^y)&-int64(swap), -int64(na), -int64(nb)
	return (x ^ m ^ ma) - ma, (y ^ m ^ mb) - mb
}

// veer is the quarter turns from +x to the turned step (x, y)'s dominant
// axis, x winning a tie, 0 for no step: the next frame turns that much more.
// Read off the turned step with no branch, it keeps h out of the key chain.
func veer(x, y int64) byte {
	left := byte(uint64(max(x, -x)-max(y, -y)) >> 63)
	return left | byte(uint64(x^(x^y)&-int64(left))>>63)<<1
}

// riceCosts is what every third of codes costs as Rice codes of parameter
// k−1, k and k+1 (k ≥ 1), in bits: u costs u>>k and k+1 bits while u>>k <
// riceEscape, escapeBits past it.
func riceCosts(codes []int64, k uint) [3]int {
	var q0, q1, q2 uint64 // the quotients, an escape as escaped says; not an array, which lives in memory
	for i := 0; i < len(codes); i += 3 {
		u := uint64(codes[i]) >> (k - 1)
		if u >= riceEscape { // rare: a quotient escapes
			q0, q1, q2 = q0+escaped(u, k), q1+escaped(u>>1, k+1), q2+escaped(u>>2, k+2)
		}
		q0, q1, q2 = q0+u, q1+u>>1, q2+u>>2
	}
	m := (len(codes) + 2) / 3
	return [3]int{int(q0) + m*int(k), int(q1) + m*int(k+1), int(q2) + m*int(k+2)}
}

// escaped is what a quotient q adds to riceCosts' count of q and k bits for
// its code — nothing, or, if q escapes, the rest of escapeBits.
func escaped(q uint64, k uint) uint64 {
	if q < riceEscape {
		return 0
	}
	return uint64(escapeBits-int(k)) - q
}

// chooseCode codes a field's m values, every third of vals, in place: less
// their least lo, unsigned, when Rice codes of the mean so cost less, lo's
// varint with them, than zig-zagged ones, else zig-zagged. The head byte is
// the flag over the cheapest Rice parameter, stepped to from log₂ of the
// codes' mean while a neighbour costs less.
func chooseCode(vals []int64, m int, lo int64) (head byte, off int64) {
	var sFOR, sZig uint64
	for i := 0; i < len(vals); i += 3 {
		sFOR, sZig = sFOR+uint64(vals[i]-lo), sZig+uint64(vals[i]<<1^vals[i]>>63)
	}
	sum, kFOR, kZig := sZig, max(bits.Len64(sFOR/uint64(m)), 1)-1, max(bits.Len64(sZig/uint64(m)), 1)-1
	if m*kFOR+int(sFOR>>kFOR)+8*(max(bits.Len64(uint64(lo<<1^lo>>63))+6, 7)/7) < m*kZig+int(sZig>>kZig) {
		head, off, sum = flagFOR, lo, sFOR
	}
	for i := 0; i < len(vals); i += 3 {
		if vals[i] -= off; head == 0 {
			vals[i] = vals[i]<<1 ^ vals[i]>>63
		}
	}
	for k := min(max(bits.Len64(sum/uint64(m)), 2)-1, maxRiceK-1); ; {
		cost := riceCosts(vals, uint(k))
		j := slices.Index(cost[:], slices.Min(cost[:]))
		if k += j - 1; j == 1 || k < 1 || k >= maxRiceK {
			return head | byte(k), off
		}
	}
}

// packScratch lends AppendPacked the field values of a trail's later keys,
// between the walk that decodes them and the one that codes them.
var packScratch = sync.Pool{New: func() any { return new([]int64) }}

// AppendPacked appends the trail as a packed block: the count and the first
// key as AppendBlock writes them; then, for two keys or more, a head and the
// later keys' codes. A key's step (Δlon, Δlat) is turned so that the step
// before it points along +x (veer; east before any): its across and along
// components and Δt are the three fields. The head is a byte a field — the
// Rice parameter (0–24) under the flags — then each field's least (varint,
// flagFOR) and the watermark (uvarint, flagAged). The codes follow
// interleaved, least significant bit first, zero-padded to a byte. It walks
// the trail's bytes once and allocates only dst's growth.
func (t *Trail) AppendPacked(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	scratch := packScratch.Get().(*[]int64)
	defer packScratch.Put(scratch)
	vals, lo, h, first := (*scratch)[:0], [3]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}, byte(0), true
	for p := 0; p <= len(t.full); p++ {
		pg := t.cur
		if p < len(t.full) {
			pg = t.full[p]
		}
		for len(pg) > 0 { // a block's bytes are its varints, three a key
			zlat, n1 := binary.Uvarint(pg) // Uvarint inlines, Varint does not
			zlon, n2 := binary.Uvarint(pg[n1:])
			zt, n3 := binary.Uvarint(pg[n1+n2:])
			if pg = pg[n1+n2+n3:]; first { // the first key, absolute
				dst, first = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dst, zlat), zlon), zt), false
				continue
			}
			dt := int64(zt>>1) ^ -int64(zt&1)
			x, y := turn(h, int64(zlon>>1)^-int64(zlon&1), int64(zlat>>1)^-int64(zlat&1))
			lo = [3]int64{min(lo[0], y), min(lo[1], x), min(lo[2], dt)}
			vals, h = append(vals, y, x, dt), (h+veer(x, y))&3
		}
	}
	if *scratch = vals; t.n < 2 {
		return dst
	}
	head, off := [3]byte{}, [3]int64{}
	for f := range head {
		head[f], off[f] = chooseCode(vals[f:], t.n-1, lo[f])
	}
	if t.aged > 0 {
		head[0] |= flagAged
	}
	dst = append(dst, head[:]...)
	for f, hb := range head {
		if hb&flagFOR != 0 {
			dst = binary.AppendVarint(dst, off[f])
		}
	}
	if t.aged > 0 {
		dst = binary.AppendUvarint(dst, uint64(t.aged))
	}
	out, k := bitWriter{dst: dst}, [3]uint{uint(head[0] & 31), uint(head[1] & 31), uint(head[2] & 31)}
	for i := 0; i < len(vals); i += 3 { // chooseCode left the codes in vals
		out.rice(uint64(vals[i]), k[0])
		out.rice(uint64(vals[i+1]), k[1])
		out.rice(uint64(vals[i+2]), k[2])
	}
	for i := uint(0); i < out.n; i += 8 { // the last bits, zero-padded
		out.dst = append(out.dst, byte(out.acc>>i))
	}
	return out.dst
}

// bitWriter appends bits to dst, least significant first; acc holds n < 64.
type bitWriter struct {
	dst []byte
	acc uint64
	n   uint
}

// put appends the low n ≤ 64 bits of v, which has no others.
func (w *bitWriter) put(v uint64, n uint) {
	if w.acc |= v << w.n; w.n+n >= 64 {
		w.dst, w.acc, w.n = binary.LittleEndian.AppendUint64(w.dst, w.acc), v>>(64-w.n), w.n+n-64
		return
	}
	w.n += n
}

func (w *bitWriter) rice(v uint64, k uint) {
	if q := v >> k; q < riceEscape {
		w.put(1<<q-1|(v&(1<<k-1))<<(q+1), uint(q)+1+k)
	} else {
		w.put(1<<riceEscape-1, riceEscape)
		w.put(v, 64)
	}
}

var errTrailing = errors.New("trajstore: bytes after the packed block's last key")
var errHead = errors.New("trajstore: packed head out of range")

// UnpackBlock appends to dst the delta-varint block packed holds, as
// AppendBlock wrote it, checking in the same pass all Enters(block, nil)
// checks (ErrRange: a key off the globe) and that only zero padding
// follows; the trail it returns is that block on dst's tail, its bounds,
// last key and watermark from the same pass.
func UnpackBlock(dst, packed []byte) ([]byte, Trail, error) { return unpack(dst, packed, 3) }

// UnpackV4Block is UnpackBlock for versions 3 and 4's packing: Δlat, Δlon
// and Δt zig-zagged, with no turn, no flag and no watermark.
func UnpackV4Block(dst, packed []byte) ([]byte, Trail, error) { return unpack(dst, packed, 0) }

// unpack reads a packed block whose headings turn under the mask turns: 3
// in version 5, 0 in versions 3 and 4, which have no turn and no flag.
func unpack(dst, packed []byte, turns byte) ([]byte, Trail, error) {
	n, off := binary.Uvarint(packed)
	if off <= 0 {
		return nil, Trail{}, ErrShortBuffer
	}
	c := Cursor{b: packed[off:], left: int(min(n, 1)), first: true}
	var wk walk
	if _, err := c.decode(nil, c.left, false, &wk); err != nil || !onGlobe(wk.box) {
		return nil, Trail{}, cmp.Or(err, ErrRange)
	}
	dst = binary.AppendUvarint(dst, n)
	body, key, box := len(dst), [3]int64{c.lat, c.lon, c.t}, wk.box
	if n > 0 {
		dst = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(dst, c.lat), c.lon), uint64(c.t))
	}
	// acc holds nb unread bits of b, and above them only b's next bits or
	// zeros; h is the heading the next step is turned from; per field, k is
	// the Rice parameter, z 1 for zig-zagged codes, lo the least flagFOR adds.
	b, aged, acc, nb, h := c.b, uint64(0), uint64(0), uint(0), byte(0)
	k, z, lo := [3]uint{}, [3]uint64{1, 1, 1}, [3]int64{}
	if n >= 2 && len(b) < 3 {
		return nil, Trail{}, ErrShortBuffer
	} else if n >= 2 {
		head, w := [3]byte(b[:3]), 3 // each byte's parameter at most 24, no flag in version 4, flagAged on the first only
		if max(head[0]&^(flagFOR|flagAged), head[1]&^flagFOR, head[2]&^flagFOR) > maxRiceK || turns == 0 && max(head[0], head[1], head[2]) > maxRiceK {
			return nil, Trail{}, errHead
		}
		ok := true // while every varint of the head reads
		for f, hb := range head {
			if k[f] = uint(hb & 31); hb&flagFOR != 0 {
				v, wv := binary.Uvarint(b[w:]) // a varint: Uvarint inlines, Varint does not
				lo[f], z[f], w, ok = int64(v>>1)^-int64(v&1), 0, w+max(wv, 0), ok && wv > 0
			}
		}
		if head[0]&flagAged != 0 {
			v, wv := binary.Uvarint(b[w:])
			aged, w, ok = v, w+max(wv, 0), ok && wv > 0 && v <= math.MaxUint32
		}
		if b = b[w:]; !ok {
			return nil, Trail{}, errHead
		}
	}
	for i := uint64(1); i < n; i++ {
		var d [3]int64 // across, along, Δt
		for f, kf := range k {
			acc, nb, b = refill(acc, nb, b) // now acc holds the whole code, the escape's ones or b's last bits
			q := uint(bits.TrailingZeros64(^acc))
			u := uint64(q)<<kf | acc>>(q+1)&(1<<kf-1)
			switch {
			case q < riceEscape && q+1+kf <= nb:
				acc, nb = acc>>(q+1+kf), nb-q-1-kf
			case q < riceEscape:
				return nil, Trail{}, ErrShortBuffer
			default: // escaped: the ones, then u's 64 bits, 32 at a time
				acc, nb, u = acc>>riceEscape, nb-riceEscape, 0
				for half := uint(0); half < 64; half += 32 {
					if acc, nb, b = refill(acc, nb, b); nb < 32 {
						return nil, Trail{}, ErrShortBuffer
					}
					u, acc, nb = u|acc&math.MaxUint32<<half, acc>>32, nb-32
				}
			}
			d[f] = int64(u>>z[f]) ^ -int64(u&z[f]) + lo[f]
		}
		dlon, dlat := unturn(h, d[1], d[0])
		h = (h + veer(d[1], d[0])) & turns
		key[0], key[1], key[2] = key[0]+dlat, key[1]+dlon, key[2]+d[2]
		dst = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(dst, dlat), dlon), d[2])
		box.MinLat, box.MinLon, box.T0 = min(box.MinLat, key[0]), min(box.MinLon, key[1]), min(box.T0, key[2])
		box.MaxLat, box.MaxLon, box.T1 = max(box.MaxLat, key[0]), max(box.MaxLon, key[1]), max(box.T1, key[2])
	}
	if len(b) > 0 || nb >= 8 || acc != 0 {
		return nil, Trail{}, errTrailing
	}
	if !onGlobe(box) || box.T0 < 0 || box.T1 > math.MaxUint32 { // the box holds every key: one check for all
		return nil, Trail{}, ErrRange
	}
	return dst, Trail{cur: dst[body:len(dst):len(dst)], size: len(dst) - body, n: int(n), lat: int32(key[0]), lon: int32(key[1]), t: uint32(key[2]), aged: uint32(aged),
		bounds: Bounds{int32(box.MinLat), int32(box.MinLon), int32(box.MaxLat), int32(box.MaxLon), uint32(box.T0), uint32(box.T1)}}, nil
}

// refill tops acc's nb unread bits up to at least 56 from b, a word at a
// time while b holds one — the word's bits above the new nb are b's next,
// which the next refill puts there again — or to all b has left.
func refill(acc uint64, nb uint, b []byte) (uint64, uint, []byte) {
	if len(b) >= 8 {
		return acc | binary.LittleEndian.Uint64(b)<<nb, nb | 56, b[(63-nb)>>3:]
	}
	for ; nb < 56 && len(b) > 0; b, nb = b[1:], nb+8 {
		acc |= uint64(b[0]) << nb
	}
	return acc, nb, b
}

// PackedBound bounds a packed block of n keys: the count, the first key,
// every least, the watermark, every code an escape.
func PackedBound(n int) int { return 8*binary.MaxVarintLen64 + 3 + max(n-1, 0)*3*escapeBits/8 }
