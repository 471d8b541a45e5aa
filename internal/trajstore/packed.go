// The packed block: how a segment log record holds a trail on disk —
// DeltaEncode's block with its deltas Rice-coded, one parameter a field.
// AppendPacked writes it, UnpackBlock turns it back into that block and its trail.
package trajstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

const (
	riceEscape = 32              // a quotient this large is escaped: riceEscape one bits, then the value's 64
	escapeBits = riceEscape + 64 // what an escape costs, the most any code does
	maxRiceK   = 24              // so that a code, unless escaped, fits the 56 bits a load brings
)

// riceTally gathers in one walk what each Rice parameter k costs a field: a
// value of bit length b costs k+1 bits and v>>k while b ≤ k+5, escapeBits
// past it. n[b] counts values of bit length b, q[k] sums those v>>k.
type riceTally struct {
	n [65]int
	q [64]uint64
}

func (r *riceTally) add(v uint64) {
	b := bits.Len64(v)
	r.n[b]++
	for k := max(b-5, 0); k < b; k++ { // below b-5 v escapes, from b on v>>k is 0
		r.q[k] += v >> k
	}
}

// best returns the cheapest parameter for the total values tallied.
func (r *riceTally) best(total int) (k byte) {
	short, cost := r.n[0]+r.n[1]+r.n[2]+r.n[3]+r.n[4], math.MaxInt // bit length ≤ j+5
	for j := range maxRiceK + 1 {
		short += r.n[j+5]
		if c := int(r.q[j]) + (j+1)*short + escapeBits*(total-short); c < cost {
			k, cost = byte(j), c
		}
	}
	return k
}

// AppendPacked appends the trail as a packed block: the count and the first
// key as AppendBlock writes them; then, for two keys or more, the cheapest
// Rice parameter (a byte, 0–24) for Δlat, Δlon and Δt, and every later key's
// zig-zagged deltas as interleaved Rice codes, least significant bit first,
// zero-padded to a byte. It walks the trail's bytes twice — to choose, to
// write — allocating only dst's growth.
func (t *Trail) AppendPacked(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	var tally [3]riceTally
	k, out := [3]byte{}, bitWriter{}
	for pass := 0; pass < 2; pass++ {
		f := -3 // the field of the next varint; the first key's come first
		for p := 0; p <= len(t.full); p++ {
			pg := t.cur
			if p < len(t.full) {
				pg = t.full[p]
			}
			for len(pg) > 0 { // a block's bytes are its varints, three a key
				v, n := binary.Uvarint(pg)
				switch pg = pg[n:]; {
				case f < 0 && pass == 0:
					dst = binary.AppendUvarint(dst, v)
				case f < 0:
				case pass == 0:
					tally[f].add(v)
				default:
					out.rice(v, uint(k[f]))
				}
				if f++; f == 3 {
					f = 0
				}
			}
		}
		if t.n < 2 {
			return dst
		} else if pass == 0 {
			k = [3]byte{tally[0].best(t.n - 1), tally[1].best(t.n - 1), tally[2].best(t.n - 1)}
			out.dst = append(dst, k[:]...)
		}
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

// UnpackBlock appends to dst the delta-varint block packed holds, as
// AppendBlock wrote it, checking in the same pass all Enters(block, nil)
// checks (ErrRange: a key off the globe) and that only zero padding
// follows; the trail it returns is that block on dst's tail, its bounds
// and last key from the same pass.
func UnpackBlock(dst, packed []byte) ([]byte, Trail, error) {
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
	b, k := c.b, [3]uint{}
	if n >= 2 && len(b) < 3 {
		return nil, Trail{}, ErrShortBuffer
	} else if n >= 2 && max(b[0], b[1], b[2]) > maxRiceK {
		return nil, Trail{}, fmt.Errorf("trajstore: Rice parameter %d out of range", max(b[0], b[1], b[2]))
	} else if n >= 2 {
		k, b = [3]uint{uint(b[0]), uint(b[1]), uint(b[2])}, b[3:]
	}
	// acc holds nb unread bits of b, zeros above; load tops it up to ≥ 56.
	acc, nb := uint64(0), uint(0)
	load := func() {
		for ; nb < 56 && len(b) > 0; b, nb = b[1:], nb+8 {
			acc |= uint64(b[0]) << nb
		}
	}
	for i := uint64(1); i < n; i++ {
		for f, kf := range k {
			load() // now acc holds the whole code, the escape's ones or b's last bits
			q := uint(bits.TrailingZeros64(^acc))
			v := uint64(q)<<kf | acc>>(q+1)&(1<<kf-1)
			switch {
			case q < riceEscape && q+1+kf <= nb:
				acc, nb = acc>>(q+1+kf), nb-q-1-kf
			case q < riceEscape:
				return nil, Trail{}, ErrShortBuffer
			default: // escaped: the ones, then v's 64 bits, 32 at a time
				acc, nb, v = acc>>riceEscape, nb-riceEscape, 0
				for half := uint(0); half < 64; half += 32 {
					if load(); nb < 32 {
						return nil, Trail{}, ErrShortBuffer
					}
					v, acc, nb = v|acc&math.MaxUint32<<half, acc>>32, nb-32
				}
			}
			key[f] += int64(v>>1) ^ -int64(v&1)
			dst = binary.AppendUvarint(dst, v) // AppendVarint of the delta
		}
		if uint64(key[0]+90e7) > 180e7 || uint64(key[1]+180e7) > 360e7 || uint64(key[2]) > math.MaxUint32 {
			return nil, Trail{}, ErrRange
		}
		box.MinLat, box.MinLon, box.T0 = min(box.MinLat, key[0]), min(box.MinLon, key[1]), min(box.T0, key[2])
		box.MaxLat, box.MaxLon, box.T1 = max(box.MaxLat, key[0]), max(box.MaxLon, key[1]), max(box.T1, key[2])
	}
	if len(b) > 0 || nb >= 8 || acc != 0 {
		return nil, Trail{}, errTrailing
	}
	return dst, Trail{cur: dst[body:len(dst):len(dst)], size: len(dst) - body, n: int(n), lat: int32(key[0]), lon: int32(key[1]), t: uint32(key[2]),
		bounds: Bounds{int32(box.MinLat), int32(box.MinLon), int32(box.MaxLat), int32(box.MaxLon), uint32(box.T0), uint32(box.T1)}}, nil
}

// PackedBound bounds a packed block of n keys: every code an escape.
func PackedBound(n int) int { return 4*binary.MaxVarintLen64 + 3 + max(n-1, 0)*3*escapeBits/8 }
