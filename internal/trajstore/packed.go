// The packed block: how a segment log record holds a trail on disk —
// DeltaEncode's block with each later key coded in its predecessor's frame,
// each field Rice-coded or, where that costs fewer bits, coded with a
// Huffman table of value buckets. AppendPacked writes it, UnpackBlock turns
// it back into that block and its trail.
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
	riceEscape   = 32                // a quotient this large is escaped: riceEscape one bits, then the value's 64
	escapeBits   = riceEscape + 64   // what an escape costs, the most any code does
	maxRiceK     = 24                // so that a code, unless escaped, fits the 56 bits a load brings
	tableK       = 31                // in a field's head byte, past every Rice parameter: its codes are its table's
	maxCodeLen   = 11                // the longest code a table gives a bucket
	buckets      = 252               // value buckets: 0–7 each their own, then four for each bit length 4–64
	maxTable     = 2 + 2 + buckets/2 // a table's bytes at most: first bucket, count, a code length a nibble
	minTableKeys = 24                // a shorter record is not counted for a table: on the guard tracks none saves a byte
	flagFOR      = 1 << 5            // in a field's head byte: its least follows, a code is the value less it, unsigned
	flagGrid     = 1 << 6            // in the first field's head byte: the divisor follows, the spatial fields' codes are of steps over it
	flagAged     = 1 << 7            // in the first field's head byte: the ageing watermark follows
	flagPace     = 1 << 6            // in the third field's head byte: the pace follows, Δt's codes are of Δt less its step at that pace
	paceBits     = 12                // the pace's fractional bits
	maxPace      = 1<<31 - 1         // a step, under 2³² grid units on each axis, times the pace stays under 2⁶³
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

// riceCosts is what the m codes codes holds, every s-th, cost as Rice codes
// of parameter k−1, k and k+1 (k ≥ 1), in bits: u costs u>>k and k+1 bits
// while u>>k < riceEscape, escapeBits past it.
func riceCosts(codes []int64, s, m int, k uint) [3]int {
	var q0, q1, q2 uint64 // the quotients, an escape as escaped says; not an array, which lives in memory
	for i := 0; i < len(codes); i += s {
		u := uint64(codes[i]) >> (k - 1)
		if u >= riceEscape { // rare: a quotient escapes
			q0, q1, q2 = q0+escaped(u, k), q1+escaped(u>>1, k+1), q2+escaped(u>>2, k+2)
		}
		q0, q1, q2 = q0+u, q1+u>>1, q2+u>>2
	}
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

// fieldCode is how chooseCode codes a field, and what a table for it
// needs: the head byte, the least flagFOR subtracts and what its codes cost,
// in bits — its Rice codes', or its table's and the table's own once it
// takes one; where it counted them, the first and last bucket its codes
// fall in and the bits a table would leave raw.
type fieldCode struct {
	head        byte
	off         int64
	bits        int
	first, last uint
	raw         int
}

// size is what the field adds to its block, in bits: its codes, and its
// least under flagFOR.
func (c fieldCode) size() int {
	return c.bits + int(c.head>>5&1)*8*varintBytes(uint64(c.off<<1^c.off>>63))
}

// varintBytes is the length of u's uvarint.
func varintBytes(u uint64) int { return max(bits.Len64(u)+6, 7) / 7 }

// chooseCode codes a field's m values, every s-th of vals, in place: less
// their least lo, unsigned, when Rice codes of the mean so cost less, lo's
// varint with them, than zig-zagged ones, else zig-zagged. The head byte is
// the flag over the cheapest Rice parameter, stepped to from log₂ of the
// codes' mean while a neighbour costs less. With hist, it counts the codes
// by bucket.
func chooseCode(vals []int64, s, m int, lo int64, hist *[buckets]uint32) fieldCode {
	var sum, sZig uint64
	for i := 0; i < len(vals); i += s {
		sum, sZig = sum+uint64(vals[i]), sZig+uint64(vals[i]<<1^vals[i]>>63)
	}
	return codeField(vals, s, m, lo, sum, sZig, hist)
}

// codeField is chooseCode given the values' sum and their zig-zagged
// codes' sum, each mod 2⁶⁴.
func codeField(vals []int64, s, m int, lo int64, sum, sZig uint64, hist *[buckets]uint32) (c fieldCode) {
	sFOR := sum - uint64(m)*uint64(lo) // Σ(v − lo), mod 2⁶⁴ as each term's sum is
	sum, kFOR, kZig := sZig, max(bits.Len64(sFOR/uint64(m)), 1)-1, max(bits.Len64(sZig/uint64(m)), 1)-1
	if m*kFOR+int(sFOR>>kFOR)+8*varintBytes(uint64(lo<<1^lo>>63)) < m*kZig+int(sZig>>kZig) {
		c.head, c.off, sum = flagFOR, lo, sFOR
	}
	// The codes, each counted by bucket with hist and priced as riceCosts
	// prices them at k, stepped to from log₂ of their mean.
	k := uint(min(max(bits.Len64(sum/uint64(m)), 2)-1, maxRiceK-1))
	var q0, q1, q2 uint64
	for i := 0; i < len(vals); i += s {
		if vals[i] -= c.off; c.head == 0 {
			vals[i] = vals[i]<<1 ^ vals[i]>>63
		}
		if hist != nil {
			b, _ := bucket(uint64(vals[i]))
			hist[b]++
		}
		u := uint64(vals[i]) >> (k - 1) // as riceCosts counts it
		if u >= riceEscape {
			q0, q1, q2 = q0+escaped(u, k), q1+escaped(u>>1, k+1), q2+escaped(u>>2, k+2)
		}
		q0, q1, q2 = q0+u, q1+u>>1, q2+u>>2
	}
	if hist != nil { // the first and last bucket counted, and the raw bits of all: a bucket from 8 up leaves (b − 8)/4 + 1
		last := uint(buckets - 1)
		for hist[last] == 0 {
			last--
		}
		c.first, c.last = uint(slices.IndexFunc(hist[:last+1], func(n uint32) bool { return n > 0 })), last
		for b := max(c.first, 8); b <= last; b++ {
			c.raw += int(hist[b]) * int((b-8)>>2+1)
		}
	}
	for cost := [3]int{int(q0) + m*int(k), int(q1) + m*int(k+1), int(q2) + m*int(k+2)}; ; cost = riceCosts(vals, s, m, k) {
		j := slices.Index(cost[:], slices.Min(cost[:]))
		if k += uint(j) - 1; j == 1 || k < 1 || k >= maxRiceK {
			c.head, c.bits = c.head|byte(k), cost[j]
			return c
		}
	}
}

// packBufs is AppendPacked's scratch: the field values of a trail's later
// keys, between the walk that decodes them and the one that codes them,
// Δt's residuals at the pace, a field's count of each value bucket — zero
// between uses — and per field the buckets' codes, the residuals' last.
type packBufs struct {
	vals, res []int64
	hist      [buckets]uint32
	lens      [4][buckets]uint8  // a bucket's code length, 0 for none
	code      [4][buckets]uint32 // a bucket's code, its first bit least significant, under its length<<16 and raw bits<<20

	// huffman's: the buckets by count, their weights, the count of codes
	// of each length.
	sym      [buckets]uint64
	w, depth [buckets]int
}

var packScratch = sync.Pool{New: func() any { return new(packBufs) }}

// How appendPacked packs, flags over AppendPacked's 0 — a table and the pace
// each where it costs fewer bits: tests forbid either (paceNever writes
// version 7's bytes, with tablesNever version 6's), force them where a
// record has them to take (tests reach every table and pace a reader must
// read with them), or build every counted field's Huffman code, as without
// the entropy bound.
const (
	tablesNever = 1 << iota
	tablesAlways
	paceNever
	paceAlways
	noBound
)

// AppendPacked appends the trail as a packed block: the count and the first
// key as AppendBlock writes them; then, for two keys or more, a head and the
// later keys' codes. A key's step (Δlon, Δlat) is turned so that the step
// before it points along +x (veer; east before any): its across and along
// components, each over the divisor g — the greatest common divisor of every
// step's, a grid the keys lie on — and Δt are the three fields. The head is
// a byte a field — the Rice parameter (0–24), or tableK, under the flags —
// then each field's least (varint, flagFOR), the watermark (uvarint,
// flagAged), g (uvarint, flagGrid, written where g > 1), the pace q
// (uvarint, flagPace) and each tableK field's table (appendTable). Under
// flagPace, Δt's values are Δt less the step's time at q/2¹² a grid unit of
// its longer component (pace). A field takes a table, and Δt the pace, only
// where that costs fewer bits, so no block is larger than with neither. The
// codes follow interleaved, least significant bit first, zero-padded to a
// byte. It walks the trail's bytes once and allocates only dst's growth.
func (t *Trail) AppendPacked(dst []byte) []byte { return t.appendPacked(dst, 0) }

// pace is the time a step (across, along) in grid units takes at pace q:
// its longer component's, q/2¹² a unit, rounded. 0 at q = 0.
func pace(across, along, q int64) int64 {
	return (max(across, -across, along, -along)*q + 1<<(paceBits-1)) >> paceBits
}

func (t *Trail) appendPacked(dst []byte, mode int) []byte {
	dst = binary.AppendUvarint(dst, uint64(t.n))
	p := packScratch.Get().(*packBufs)
	defer packScratch.Put(p)
	first, g, q, c := p.codeFields(t, mode)
	if t.n > 0 { // the first key, absolute
		dst = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(dst, first[0]), first[1]), first[2])
	}
	if t.n < 2 {
		return dst
	}
	vals := p.vals
	head := [3]byte{c[0].head, c[1].head, c[2].head}
	if t.aged > 0 {
		head[0] |= flagAged
	}
	if g > 1 {
		head[0] |= flagGrid
	}
	if q > 0 {
		head[2] |= flagPace
	}
	dst = append(dst, head[:]...)
	for f, hb := range head {
		if hb&flagFOR != 0 {
			dst = binary.AppendVarint(dst, c[f].off)
		}
	}
	if t.aged > 0 {
		dst = binary.AppendUvarint(dst, uint64(t.aged))
	}
	if g > 1 {
		dst = binary.AppendUvarint(dst, g)
	}
	if q > 0 {
		dst = binary.AppendUvarint(dst, uint64(q))
	}
	for f, hb := range head {
		if hb&31 == tableK {
			dst = appendTable(dst, p.lens[f][c[f].first:c[f].last+1], c[f].first)
		}
	}
	out, k := bitWriter{dst: dst}, [3]uint{uint(head[0] & 31), uint(head[1] & 31), uint(head[2] & 31)}
	if !slices.Contains(k[:], tableK) {
		for i := 0; i < len(vals); i += 3 { // chooseCode left the codes in vals
			out.rice(uint64(vals[i]), k[0])
			out.rice(uint64(vals[i+1]), k[1])
			out.rice(uint64(vals[i+2]), k[2])
		}
	} else {
		for i := 0; i < len(vals); i += 3 {
			for f, kf := range k {
				if u := uint64(vals[i+f]); kf != tableK {
					out.rice(u, kf)
				} else {
					b, _ := bucket(u)
					e := p.code[f][b]
					code, l, r := uint64(e&0xffff), uint(e>>16&15), uint(e>>20)
					if raw := u & (1<<r - 1); l+r <= 64 {
						out.put(code|raw<<l, l+r)
					} else { // more than a put takes: bits no trail's values reach
						out.put(code, l)
						out.put(raw, r)
					}
				}
			}
		}
	}
	for i := uint(0); i < out.n; i += 8 { // the last bits, zero-padded
		out.dst = append(out.dst, byte(out.acc>>i))
	}
	return out.dst
}

// codeFields walks the trail's bytes once: it returns the first key's three
// uvarints as the block holds them, and for two keys or more the divisor,
// the pace, 0 for none, and how each field is coded, whose codes it leaves
// in p.vals — and a tableK field's code in p.lens and p.code.
func (p *packBufs) codeFields(t *Trail, mode int) (first [3]uint64, g uint64, q int64, c [3]fieldCode) {
	vals, lo, h, n := p.vals[:0], [3]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}, byte(0), 0
	var sl int64 // Σ of each step's longer component: under 2³² a step, so PackedBound's keys' sum fits
	for pi := 0; pi <= len(t.full); pi++ {
		pg := t.cur
		if pi < len(t.full) {
			pg = t.full[pi]
		}
		for ; len(pg) > 0; n++ { // a block's bytes are its varints, three a key
			zlat, n1 := binary.Uvarint(pg) // Uvarint inlines, Varint does not
			zlon, n2 := binary.Uvarint(pg[n1:])
			zt, n3 := binary.Uvarint(pg[n1+n2:])
			if pg = pg[n1+n2+n3:]; n == 0 {
				first = [3]uint64{zlat, zlon, zt}
				continue
			}
			dt := int64(zt>>1) ^ -int64(zt&1)
			x, y := turn(h, int64(zlon>>1)^-int64(zlon&1), int64(zlat>>1)^-int64(zlat&1))
			if g != 1 { // off every grid, as most records are, g is 1 within a few keys
				g = divisor(divisor(g, x), y)
			}
			lo, sl = [3]int64{min(lo[0], y), min(lo[1], x), min(lo[2], dt)}, sl+max(x, -x, y, -y)
			vals, h = append(vals, y, x, dt), (h+veer(x, y))&3
		}
	}
	if p.vals = vals; t.n < 2 {
		return first, g, 0, c
	}
	// A record of minTableKeys keys or more is counted for tables and priced
	// for the pace; a shorter one is neither, unless a test forces them.
	m, counted := t.n-1, t.n >= minTableKeys
	var hist *[buckets]uint32
	if mode&tablesAlways != 0 || mode&tablesNever == 0 && counted {
		hist = &p.hist
	}
	// Every spatial value is a multiple of g, so v/g is exact: v >> z times
	// inv, z g's trailing zeros and inv its odd part's inverse mod 2⁶⁴ — no
	// divide; z = 0 and inv = 1 off every grid.
	z, inv := bits.TrailingZeros64(max(g, 1)), int64(1)
	for odd := int64(max(g, 1) >> z); inv*odd != 1; {
		inv *= 2 - odd*inv // Newton's step doubles the low bits inv is right in
	}
	lo[0], lo[1], sl = lo[0]>>z*inv, lo[1]>>z*inv, sl>>z*inv
	// q, the pace: ΣΔt — the last time less the first — over sl, 2¹² a
	// unit, rounded; 0 past maxPace.
	if sdt := int64(t.t) - int64(first[2]); sdt > 0 && sl > 0 && (mode&paceAlways != 0 || mode&paceNever == 0 && counted) {
		if q = (sdt<<(paceBits+1) + sl) / (2 * sl); q > maxPace {
			q = 0
		}
	}
	// One pass divides the steps by g and takes Δt less each step's time at
	// the pace, where there is one: the residuals, coded as paced says.
	res, lo3, sum, sZig := p.res[:0], int64(math.MaxInt64), uint64(0), uint64(0)
	for i := 0; i < len(vals) && (g > 1 || q > 0); i += 3 {
		across, along := vals[i]>>z*inv, vals[i+1]>>z*inv
		if vals[i], vals[i+1] = across, along; q > 0 {
			r := vals[i+2] - pace(across, along, q)
			res, lo3, sum, sZig = append(res, r), min(lo3, r), sum+uint64(r), sZig+uint64(r<<1^r>>63)
		}
	}
	var paced fieldCode
	if p.res = res; q > 0 {
		if paced = codeField(res, 1, m, lo3, sum, sZig, hist); hist != nil {
			p.table(3, m, &paced, mode)
		}
	}
	for f := range c {
		c[f] = chooseCode(vals[f:], 3, m, lo[f], hist)
		if hist != nil {
			p.table(f, m, &c[f], mode)
		}
	}
	if q > 0 && (mode&paceAlways != 0 || paced.size()+8*varintBytes(uint64(q)) < c[2].size()) {
		c[2], p.lens[2], p.code[2] = paced, p.lens[3], p.code[3]
		for i, r := range res {
			vals[3*i+2] = r
		}
	} else {
		q = 0
	}
	return first, g, q, c
}

// bucket is the value bucket u falls in and the count of its bits a code
// leaves raw: a value under 8 is its own bucket, with none; one of bit
// length c ≥ 4 falls in bucket 8 + 4(c − 4) plus its two bits under the
// leading one, and its c − 3 bits under those follow its code. With no
// branch: c is 3 for every value under 8, which the same sum puts in its
// own bucket from 4 up and 4 too far below.
func bucket(u uint64) (uint, uint) {
	c := uint(bits.Len64(u | 4))
	return 4*c - 8 + uint(u>>(c-3))&3 - 4*uint((u>>2-1)>>63), c - 3
}

// table gives the field whose m codes chooseCode counted into hist, coded
// as c says, a Huffman code over their buckets in slot f of lens and code,
// and c's head the parameter tableK and its bits the table's and its codes',
// where they cost fewer bits than c's Rice codes, or always under
// tablesAlways; it leaves hist zero.
func (p *packBufs) table(f, m int, c *fieldCode, mode int) {
	hist, always := p.hist[c.first:c.last+1], mode&tablesAlways != 0
	// Every code is a bit at least, and the codes cost their buckets'
	// entropy at least, as no prefix code beats it: a field whose table
	// cannot pay even so is not built one.
	fixed := 8*tableBytes(c.first, len(hist)) + c.raw
	pays := always || fixed+m < c.bits && (mode&noBound != 0 || fixed+entropyBits(hist, m) < c.bits)
	if pays {
		if cost := fixed + p.huffman(f, c.first, hist); cost < c.bits || always {
			c.head, c.bits = c.head&^31|tableK, cost
		}
	}
	clear(hist)
}

// entropyBits bounds from below the bits any prefix code of the m values
// hist counts by bucket takes: their entropy, m·log₂m − Σ c·log₂c, rounded
// up after a margin far above float64's rounding error.
func entropyBits(hist []uint32, m int) int {
	h := float64(m) * math.Log2(float64(m))
	for _, c := range hist {
		if c > 1 {
			h -= float64(c) * math.Log2(float64(c))
		}
	}
	return int(math.Ceil(h - 1e-3))
}

// tableBytes is what appendTable writes for count buckets from first.
func tableBytes(first uint, count int) int {
	return (bits.Len(first|1)+6)/7 + (bits.Len(uint(count))+6)/7 + (count+1)/2
}

// huffman gives the buckets hist counts — hist[i] is bucket first+i's count
// — a Huffman code of at most maxCodeLen bits in field f's lens and code,
// canonical, and returns what the counted values' codes cost, in bits. A
// lone bucket takes a 1-bit code.
func (p *packBufs) huffman(f int, first uint, hist []uint32) int {
	sym := p.sym[:0] // count<<8 | bucket, by count
	for i, c := range hist {
		if c > 0 {
			sym = append(sym, uint64(c)<<8|uint64(first)+uint64(i))
		}
	}
	slices.Sort(sym)
	n, depth := len(sym), p.depth[:max(len(sym), 2)] // how many codes each length has
	clear(depth)
	if n == 1 {
		depth[1] = 1
	} else {
		w := p.w[:n]
		for i, s := range sym {
			w[i] = int(s >> 8)
		}
		for _, l := range minRedundancy(w) {
			depth[l]++
		}
	}
	// Lengths past maxCodeLen move up two codes at a time, the Kraft sum
	// kept (JPEG's Annex K.3): two leaves of the deepest level go, their
	// parent becomes a leaf and a leaf j shallower becomes a parent of two.
	for l := len(depth) - 1; l > maxCodeLen; l-- {
		for depth[l] > 0 {
			j := l - 2
			for depth[j] == 0 {
				j--
			}
			depth[l] -= 2 // j+1 may be l−1: one step at a time
			depth[l-1]++
			depth[j+1] += 2
			depth[j]--
		}
	}
	lens, cost, i := p.lens[f][first:int(first)+len(hist)], 0, 0
	clear(lens)
	for l := min(maxCodeLen, len(depth)-1); l >= 1; l-- { // the longest codes to the rarest buckets
		for c := depth[l]; c > 0; c, i = c-1, i+1 {
			p.lens[f][sym[i]&255] = uint8(l)
			cost += int(sym[i]>>8) * l
		}
	}
	var codes [buckets]uint16
	canonical(lens, codes[:len(lens)])
	for i, l := range lens {
		_, r := bucket(bucketBase(first + uint(i)))
		p.code[f][int(first)+i] = uint32(codes[i]) | uint32(l)<<16 | uint32(r)<<20
	}
	return cost
}

// bucketBase is the least value in bucket b.
func bucketBase(b uint) uint64 {
	if b < 8 {
		return uint64(b)
	}
	return uint64(4|(b-8)&3) << ((b-8)>>2 + 1)
}

// minRedundancy turns w, weights in ascending order, into the lengths of a
// Huffman code for them, in place (Moffat and Katajainen's in-place
// algorithm): the tree's internal weights, then its parents' depths, then
// the leaves' depths, longest first. It returns w.
func minRedundancy(w []int) []int {
	n := len(w)
	w[0] += w[1]
	for next, root, leaf := 1, 0, 2; next < n-1; next++ {
		if leaf >= n || w[root] < w[leaf] { // the first child: a subtree or a leaf
			w[next], w[root], root = w[root], next, root+1
		} else {
			w[next], leaf = w[leaf], leaf+1
		}
		if leaf >= n || root < next && w[root] < w[leaf] { // the second
			w[next], w[root], root = w[next]+w[root], next, root+1
		} else {
			w[next], leaf = w[next]+w[leaf], leaf+1
		}
	}
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	for avail, depth, root, next := 1, 0, n-2, n-1; avail > 0; depth++ {
		used := 0
		for ; root >= 0 && w[root] == depth; root-- {
			used++
		}
		for ; avail > used; avail-- {
			w[next], next = depth, next-1
		}
		avail = 2 * used
	}
	return w
}

// canonical sets codes[i] to the canonical code of the bucket whose length
// is lens[i] — shorter codes first, in bucket order within a length — its
// bits reversed to be written and read first bit least significant.
func canonical(lens []uint8, codes []uint16) {
	var count, next [maxCodeLen + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for i, l := range lens {
		if l > 0 {
			codes[i], next[l] = bits.Reverse16(next[l])>>(16-l), next[l]+1
		}
	}
}

// appendTable appends a field's table: its first bucket and the count of
// buckets it covers (uvarints), then each one's code length, 0 for none, a
// nibble each, low nibble first, zero-padded to a byte.
func appendTable(dst []byte, lens []uint8, first uint) []byte {
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(first)), uint64(len(lens)))
	for i := 0; i < len(lens); i += 2 {
		hi := byte(0)
		if i+1 < len(lens) {
			hi = lens[i+1]
		}
		dst = append(dst, lens[i]|hi<<4)
	}
	return dst
}

// divisor is the greatest common divisor of g and |v|, 0 for two zeros: g
// itself, for one remainder, while v is on g's grid.
func divisor(g uint64, v int64) uint64 {
	a := uint64(max(v, -v))
	if g != 0 && a%g == 0 {
		return g
	}
	for a != 0 {
		g, a = a, g%a
	}
	return g
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
var errTable = errors.New("trajstore: packed code table is no code")

// UnpackBlock appends to dst the delta-varint block packed holds, as
// AppendBlock wrote it, checking in the same pass all Enters(block, nil)
// checks (ErrRange: a key off the globe) and that only zero padding
// follows; the trail it returns is that block on dst's tail, its bounds,
// last key and watermark from the same pass.
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
	// acc holds nb unread bits of b, and above them only b's next bits or
	// zeros; h is the heading the next step is turned from; g the divisor;
	// q the pace, 0 for none; per field, k is the Rice parameter or tableK,
	// z 1 for zig-zagged codes, lo the least flagFOR adds, and for a tableK
	// field mask picks the bits of luts' entries a code may span.
	b, aged, acc, nb, h, g, q := c.b, uint64(0), uint64(0), uint(0), byte(0), int64(1), int64(0)
	k, z, lo, mask := [3]uint{}, [3]uint64{1, 1, 1}, [3]int64{}, [3]uint64{}
	var luts *[3][1 << maxCodeLen]uint16
	if n >= 2 && len(b) < 3 {
		return nil, Trail{}, ErrShortBuffer
	} else if n >= 2 {
		head, w := [3]byte(b[:3]), 3 // each byte's parameter at most 24 or tableK, flagAged and flagGrid on the first only, flagPace on the third
		for f, hb := range head {
			if v := hb &^ [3]byte{flagFOR | flagAged | flagGrid, flagFOR, flagFOR | flagPace}[f]; v > maxRiceK && v != tableK {
				return nil, Trail{}, errHead
			}
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
		if head[0]&flagGrid != 0 { // as AppendPacked writes it: 2 up, under 2³² as the steps are
			v, wv := binary.Uvarint(b[w:])
			g, w, ok = int64(v), w+max(wv, 0), ok && wv > 0 && v >= 2 && v <= math.MaxUint32
		}
		if head[2]&flagPace != 0 { // as AppendPacked writes it: 1 up, maxPace at most
			v, wv := binary.Uvarint(b[w:])
			q, w, ok = int64(v), w+max(wv, 0), ok && wv > 0 && v >= 1 && v <= maxPace
		}
		if !ok {
			return nil, Trail{}, errHead
		}
		if slices.Contains(k[:], tableK) {
			luts = lutPool.Get().(*[3][1 << maxCodeLen]uint16)
			defer lutPool.Put(luts)
		}
		for f, kf := range k {
			if kf != tableK {
				continue
			}
			var err error
			if w, mask[f], err = readTable(b, w, &luts[f]); err != nil {
				return nil, Trail{}, err
			}
		}
		b = b[w:]
	}
	// Two loops over the later keys, alike but for the table's branch: on
	// Rice codes alone, as every record under minTableKeys keys, a branch
	// for tables costs ≈ 10 % of the unpack even when not taken.
	for i := uint64(1); i < n && luts == nil; i++ {
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
			default: // escaped: the ones, then u's 64 bits
				var ok bool
				if u, acc, nb, b, ok = take(acc>>riceEscape, nb-riceEscape, b, 64); !ok {
					return nil, Trail{}, ErrShortBuffer
				}
			}
			d[f] = int64(u>>z[f]) ^ -int64(u&z[f]) + lo[f]
		}
		across, along := d[0], d[1]
		dlon, dlat := unturn(h, along*g, across*g)
		h = (h + veer(along, across)) & 3 // g > 0 scales neither the step's dominant axis nor its sign
		dt := d[2] + pace(across, along, q)
		key[0], key[1], key[2] = key[0]+dlat, key[1]+dlon, key[2]+dt
		dst = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(dst, dlat), dlon), dt)
		box.MinLat, box.MinLon, box.T0 = min(box.MinLat, key[0]), min(box.MinLon, key[1]), min(box.T0, key[2])
		box.MaxLat, box.MaxLon, box.T1 = max(box.MaxLat, key[0]), max(box.MaxLon, key[1]), max(box.T1, key[2])
	}
	for i := uint64(1); i < n && luts != nil; i++ {
		var d [3]int64 // across, along, Δt
		for f, kf := range k {
			acc, nb, b = refill(acc, nb, b) // now acc holds the whole code, the escape's ones or b's last bits
			var u uint64
			if kf == tableK {
				// An entry is the code's length l, the raw bits r that
				// follow it and the bucket's leading bits, which the raw
				// ones go under.
				e := luts[f][acc&mask[f]&(1<<maxCodeLen-1)]
				l, r := uint(e&15), uint(e>>4&63)
				if l != 0 && l+r <= nb {
					u, acc, nb = uint64(e>>10)<<r|acc>>l&(1<<r-1), acc>>(l+r), nb-l-r
				} else if l == 0 { // no bucket's code
					return nil, Trail{}, errTable
				} else if l > nb {
					return nil, Trail{}, ErrShortBuffer
				} else { // a long raw run: past what the load brought
					var ok bool
					if u, acc, nb, b, ok = take(acc>>l, nb-l, b, r); !ok {
						return nil, Trail{}, ErrShortBuffer
					}
					u |= uint64(e>>10) << r
				}
			} else if q := uint(bits.TrailingZeros64(^acc)); q < riceEscape && q+1+kf <= nb {
				u, acc, nb = uint64(q)<<kf|acc>>(q+1)&(1<<kf-1), acc>>(q+1+kf), nb-q-1-kf
			} else if q < riceEscape {
				return nil, Trail{}, ErrShortBuffer
			} else { // escaped: the ones, then u's 64 bits
				var ok bool
				if u, acc, nb, b, ok = take(acc>>riceEscape, nb-riceEscape, b, 64); !ok {
					return nil, Trail{}, ErrShortBuffer
				}
			}
			d[f] = int64(u>>z[f]) ^ -int64(u&z[f]) + lo[f]
		}
		across, along := d[0], d[1]
		dlon, dlat := unturn(h, along*g, across*g)
		h = (h + veer(along, across)) & 3 // g > 0 scales neither the step's dominant axis nor its sign
		dt := d[2] + pace(across, along, q)
		key[0], key[1], key[2] = key[0]+dlat, key[1]+dlon, key[2]+dt
		dst = binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(dst, dlat), dlon), dt)
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

// take reads the next n ≤ 64 bits, least significant first, from acc's
// nb and then b's, 32 at a time: ok is false where too few are left.
func take(acc uint64, nb uint, b []byte, n uint) (v, acc2 uint64, nb2 uint, b2 []byte, ok bool) {
	for got := uint(0); got < n; {
		c := min(n-got, 32)
		if acc, nb, b = refill(acc, nb, b); nb < c {
			return 0, acc, nb, b, false
		}
		v, acc, nb, got = v|acc&(1<<c-1)<<got, acc>>c, nb-c, got+c
	}
	return v, acc, nb, b, true
}

// lutPool lends UnpackBlock its tables' lookup tables.
var lutPool = sync.Pool{New: func() any { return new([3][1 << maxCodeLen]uint16) }}

// readTable reads the table appendTable wrote at b[w:] into lut, an entry
// for every value of the longest code's bits: the code those bits begin
// with — its length, 0 for none — the raw bits that follow it and its
// bucket's leading bits. It returns where the table ends and the mask of
// the longest code's bits. The lengths must be at most maxCodeLen, over
// buckets that exist, and complete a code: their Kraft sum is 1, or one
// bucket has a 1-bit code.
func readTable(b []byte, w int, lut *[1 << maxCodeLen]uint16) (int, uint64, error) {
	first, w1 := binary.Uvarint(b[w:])
	count, w2 := binary.Uvarint(b[w+max(w1, 0):])
	if w1 <= 0 || w2 <= 0 {
		return 0, 0, ErrShortBuffer
	}
	if w += w1 + w2; count == 0 || first >= buckets || count > buckets-first {
		return 0, 0, errTable
	}
	if len(b)-w < int(count+1)/2 {
		return 0, 0, ErrShortBuffer
	}
	var lens [buckets + 1]uint8
	for i := range (count + 1) / 2 {
		lens[2*i], lens[2*i+1] = b[w+int(i)]&15, b[w+int(i)]>>4
	}
	kraft, used, longest := 0, 0, uint8(0)
	for _, l := range lens[:count] {
		if l > maxCodeLen {
			return 0, 0, errTable
		} else if l > 0 {
			kraft, used, longest = kraft+1<<(maxCodeLen-l), used+1, max(longest, l)
		}
	}
	if lens[count] != 0 || kraft != 1<<maxCodeLen && !(used == 1 && longest == 1) {
		return 0, 0, errTable
	}
	var codes [buckets]uint16
	canonical(lens[:count], codes[:count])
	lut[1] = 0 // a lone bucket's code is 0: no code begins with a 1; else the codes fill lut
	for i, l := range lens[:count] {
		if l == 0 {
			continue
		}
		base := bucketBase(uint(first) + uint(i))
		_, r := bucket(base)
		for j, e := int(codes[i]), uint16(l)|uint16(r)<<4|uint16(base>>r)<<10; j < 1<<longest; j += 1 << l {
			lut[j] = e
		}
	}
	return w + int(count+1)/2, 1<<longest - 1, nil
}

// PackedBound bounds a packed block of n keys: the count, the first key,
// every least, the watermark, the divisor, the pace, every field's table at
// its longest, every code an escape — longer than any table's code and raw
// bits.
func PackedBound(n int) int {
	return 10*binary.MaxVarintLen64 + 3 + 3*maxTable + max(n-1, 0)*3*escapeBits/8
}
