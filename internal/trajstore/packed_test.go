package trajstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
)

// latticeTrail builds a heap trail from lattice keys — lat, lon in 1e-7°,
// t in seconds — as Add puts them, so a test can place exact deltas.
func latticeTrail(keys [][3]int64) *Trail {
	var t Trail
	for _, k := range keys {
		t.add(int32(k[0]), int32(k[1]), uint32(k[2]))
	}
	return &t
}

// packedCases are trails whose deltas reach every corner of the code: one
// key, the widest deltas the globe allows (lon across the antimeridian,
// lat pole to pole), Δt of 0, negative and 2³²−1, a field per case whose
// one large delta among many zeros is written as an escape, and times that
// follow the steps (a pace).
func packedCases() map[string][][3]int64 {
	cases := map[string][][3]int64{
		"one key":  {{-375_000_000, 1_449_631_000, 1_700_000_000}},
		"two keys": {{0, 0, 0}, {1, -1, 1}},
		"antimeridian": {{0, 1_800_000_000, 10}, {0, -1_800_000_000, 11}, {0, 1_800_000_000, 12},
			{0, -1_800_000_000, 12}},
		"pole to pole":  {{900_000_000, 0, 5}, {-900_000_000, 0, 5}, {900_000_000, 0, 4}, {-900_000_000, 0, 4}},
		"time extremes": {{0, 0, 0}, {0, 0, math.MaxUint32}, {0, 0, 0}, {0, 0, 0}, {0, 0, math.MaxUint32}},
	}
	for f, big := range [3]int64{1_800_000_000, 3_600_000_000, math.MaxUint32} {
		keys := make([][3]int64, 24)
		for i := range keys {
			keys[i] = [3]int64{-900_000_000, -1_800_000_000, 0}
		}
		for i := 12; i < len(keys); i++ {
			keys[i][f] += big
		}
		cases[[3]string{"lat escape", "lon escape", "t escape"}[f]] = keys
	}
	rng := rand.New(rand.NewSource(42))
	walk := make([][3]int64, 500)
	lat, lon, ts := int64(-12_000_000), int64(1_799_990_000), int64(1_000)
	for i := range walk {
		lat += int64(rng.NormFloat64() * 3000)
		lon += int64(rng.NormFloat64() * 3000)
		if lon > 1_800_000_000 {
			lon -= 3_600_000_000
		} else if lon < -1_800_000_000 {
			lon += 3_600_000_000
		}
		ts += int64(rng.Intn(30))
		walk[i] = [3]int64{lat, lon, ts}
	}
	cases["random walk over the antimeridian"] = walk
	grid := make([][3]int64, 30) // steps along a street and back: leasts
	for i := 1; i < len(grid); i++ {
		grid[i] = [3]int64{grid[i-1][0] + int64(i%4)*100, grid[i-1][1] - int64(3-i%4)*300, grid[i-1][2] + 30}
	}
	cases["grid"] = grid
	// Δt over thirteen buckets in Fibonacci counts, 609 keys: an unlimited
	// Huffman code of them is 12 bits deep, so a table's is cut to 11.
	var skewed [][3]int64
	ts = 0
	for i, c := range []int{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233} {
		for range c {
			skewed = append(skewed, [3]int64{int64(i % 3), 0, ts})
			ts += []int64{16, 0, 14, 1, 12, 2, 10, 3, 8, 4, 7, 5, 6}[i]
		}
	}
	cases["skewed Δt"] = skewed
	steady := make([][3]int64, 40) // a street walked at a second for each 100 lattice steps, give or take a second: a pace
	for i := 1; i < len(steady); i++ {
		step := 100 * (1 + rng.Int63n(8))
		steady[i] = [3]int64{steady[i-1][0] + step*int64(i%2), steady[i-1][1] + step*int64(1-i%2), steady[i-1][2] + step/100 + rng.Int63n(3) - 1}
	}
	cases["steady pace"] = steady
	return cases
}

// escapes reports, per field (across, along, Δt), whether packing t with no
// pace writes an escape: the field is Rice-coded and some code's quotient
// under the parameter the packing chooses reaches riceEscape.
func escapes(t *Trail) (esc [3]bool) {
	b := t.AppendBlock(nil)
	_, off := binary.Uvarint(b)
	var vals []int64
	lo, h := [3]int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}, byte(0)
	for i := 0; off < len(b); i++ {
		dlat, n1 := binary.Varint(b[off:])
		dlon, n2 := binary.Varint(b[off+n1:])
		dt, n3 := binary.Varint(b[off+n1+n2:])
		if off += n1 + n2 + n3; i == 0 {
			continue // the first key
		}
		x, y := turn(h, dlon, dlat)
		lo = [3]int64{min(lo[0], y), min(lo[1], x), min(lo[2], dt)}
		vals, h = append(vals, y, x, dt), (h+veer(x, y))&3
	}
	for f := range esc {
		if len(vals) == 0 {
			break
		}
		k := chooseCode(vals[f:], 3, t.Len()-1, lo[f], nil).head & 31
		if packedHead(t.appendPacked(nil, paceNever))[f]&31 == tableK {
			continue
		}
		for i := f; i < len(vals); i += 3 {
			esc[f] = esc[f] || uint64(vals[i])>>k >= riceEscape
		}
	}
	return esc
}

// checkPacked packs t and requires the unpacked block to be t's own bytes
// and its trail to read as t down to the last key, and the block to be no
// larger than PackedBound. It packs t five times more — with no pace
// (version 7's packing), with neither table nor pace (version 6's), with a
// table on every field and the pace wherever t has one to take, with the
// pace so forced alone, and with the entropy bound off — and requires each
// to unpack to the same block; the packing to be no larger than version
// 7's, and its bytes where it takes no pace; version 7's to be no larger
// than version 6's, and its bytes where no field took a table; and the
// packing without the bound to be the packing's bytes. It returns the
// packing.
func checkPacked(t *testing.T, name string, tr *Trail) []byte {
	t.Helper()
	want := tr.AppendBlock(nil)
	packed := tr.AppendPacked([]byte("prefix"))
	if string(packed[:6]) != "prefix" {
		t.Fatalf("%s: AppendPacked overwrote dst", name)
	}
	packed = packed[6:]
	got, unpacked, err := UnpackBlock([]byte("x"), packed)
	if err != nil {
		t.Fatalf("%s: UnpackBlock: %v", name, err)
	}
	sameTrail(t, name+", unpacked", &unpacked, tr)
	if unpacked.lat != tr.lat || unpacked.lon != tr.lon || unpacked.t != tr.t {
		t.Fatalf("%s: the unpacked trail ends at %d, %d, %d, the trail at %d, %d, %d", name, unpacked.lat, unpacked.lon, unpacked.t, tr.lat, tr.lon, tr.t)
	}
	if want := tr.Aged() * uint32(min(tr.Len()/2, 1)); unpacked.Aged() != want {
		t.Fatalf("%s: the unpacked trail is aged through %d, want %d", name, unpacked.Aged(), want)
	}
	if !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("%s: unpacked block differs from the trail's\n got %x\nwant %x", name, got[1:], want)
	}
	if len(packed) > PackedBound(tr.Len()) {
		t.Fatalf("%s: %d packed bytes above PackedBound(%d) = %d", name, len(packed), tr.Len(), PackedBound(tr.Len()))
	}
	v7, rice := tr.appendPacked(nil, paceNever), tr.appendPacked(nil, tablesNever|paceNever)
	for _, p := range [][]byte{v7, rice, tr.appendPacked(nil, tablesAlways|paceAlways), tr.appendPacked(nil, tablesNever|paceAlways)} {
		if got, _, err := UnpackBlock(nil, p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: a packing with tables %v, a pace %v unpacks to %x, %v\nwant %x", name, usesTable(p), paced(p), got, err, want)
		}
		if len(p) > PackedBound(tr.Len()) {
			t.Fatalf("%s: %d packed bytes above PackedBound(%d) = %d", name, len(p), tr.Len(), PackedBound(tr.Len()))
		}
	}
	if len(packed) > len(v7) || !paced(packed) && !bytes.Equal(packed, v7) {
		t.Fatalf("%s: %d packed bytes (a pace %v), %d with no pace", name, len(packed), paced(packed), len(v7))
	}
	if len(v7) > len(rice) || !usesTable(v7) && !bytes.Equal(v7, rice) {
		t.Fatalf("%s: %d packed bytes with no pace (a table %v), %d with Rice codes alone", name, len(v7), usesTable(v7), len(rice))
	}
	if unbounded := tr.appendPacked(nil, noBound); !bytes.Equal(unbounded, packed) {
		t.Fatalf("%s: with the entropy bound off the packing is %x\nwith it %x", name, unbounded, packed)
	}
	return packed
}

// paced reports whether Δt in packed is coded at a pace.
func paced(packed []byte) bool {
	head := packedHead(packed)
	return head != nil && head[2]&flagPace != 0
}

// usesTable reports whether a field of packed is table-coded.
func usesTable(packed []byte) bool {
	return slices.ContainsFunc(packedHead(packed), func(h byte) bool { return h&31 == tableK })
}

// packedTables returns the code lengths of each table-coded field of
// packed, from its first bucket on; nil for a Rice-coded field.
func packedTables(packed []byte) (lens [3][]uint8) {
	head := packedHead(packed)
	if head == nil {
		return lens
	}
	// Past the head: a least a flagFOR, the watermark, the divisor and the
	// pace.
	off, varints := headOffset(packed)+3, int(head[0]>>7&1+head[0]>>6&1+head[2]>>6&1)
	for _, h := range head {
		varints += int(h >> 5 & 1)
	}
	for range varints {
		_, w := binary.Uvarint(packed[off:])
		off += w
	}
	for f, h := range head {
		if h&31 != tableK {
			continue
		}
		_, w1 := binary.Uvarint(packed[off:])
		n, w2 := binary.Uvarint(packed[off+w1:])
		off += w1 + w2
		for i := range int(n) {
			lens[f] = append(lens[f], packed[off+i/2]>>(4*(i%2))&15)
		}
		off += (int(n) + 1) / 2
	}
	return lens
}

func TestPackedRoundTrip(t *testing.T) {
	var seen [3]bool
	for name, keys := range packedCases() {
		tr := latticeTrail(keys)
		if p := checkPacked(t, name, tr); name == "steady pace" && !paced(p) {
			t.Fatalf("%s: AppendPacked codes Δt at no pace", name)
		}
		for f, e := range escapes(tr) {
			seen[f] = seen[f] || e
		}
		// The same keys across pool pages, and as a stored block reopened.
		var pool PagePool
		paged := pool.NewTrail()
		for _, k := range keys {
			paged.add(int32(k[0]), int32(k[1]), uint32(k[2]))
		}
		checkPacked(t, name+" (paged)", &paged)
		paged.Release()
		pool.Unmap()
		opened, err := OpenTrail(tr.AppendBlock(nil))
		if err != nil {
			t.Fatal(err)
		}
		checkPacked(t, name+" (opened)", &opened)
	}
	if seen != [3]bool{true, true, true} {
		t.Fatalf("escapes written per field (across, along, Δt) = %v; the cases must reach all three", seen)
	}
	var empty Trail
	if got, _, err := UnpackBlock(nil, empty.AppendPacked(nil)); err != nil || !bytes.Equal(got, empty.AppendBlock(nil)) {
		t.Fatalf("empty trail: %x, %v", got, err)
	}
}

// packedHead returns a packed block's head bytes, one a field; nil under
// two keys.
func packedHead(packed []byte) []byte {
	if n, _ := binary.Uvarint(packed); n < 2 {
		return nil
	}
	off := headOffset(packed)
	return packed[off : off+3]
}

// headOffset is where a packed block's head starts, past the count and the
// first key.
func headOffset(packed []byte) int {
	off := 0
	for range 4 {
		_, w := binary.Uvarint(packed[off:])
		off += w
	}
	return off
}

// randomTrail is a trail of up to 60 keys — one and two keys often —
// whose steps mix what the packing must carry: zero and negative Δt, a
// far jump now and then (an escape), steps on a coarse grid, runs in one
// direction (a field above 0) and back; on a quarter, Δt a second for each
// grid unit of the step, give or take a second (a pace); and, on half of
// them, an ageing watermark.
func randomTrail(rng *rand.Rand) *Trail {
	n := []int{1, 2, 3, 1 + rng.Intn(60)}[rng.Intn(4)]
	grid := []int64{1, 1, 100, 1000}[rng.Intn(4)]
	steady := rng.Intn(4) == 0
	keys := make([][3]int64, n)
	lat, lon, ts := rng.Int63n(1e9)-5e8, rng.Int63n(2e9)-1e9, rng.Int63n(1<<31)
	lat, lon = lat/grid*grid, lon/grid*grid
	dir := [2]int64{1, 0}
	for i := range keys {
		keys[i] = [3]int64{lat, lon, ts}
		if rng.Intn(4) == 0 {
			dir = [2]int64{rng.Int63n(3) - 1, rng.Int63n(3) - 1}
		}
		step := (1 + rng.Int63n(50)) * grid
		if rng.Intn(20) == 0 {
			step = rng.Int63n(1e8) * grid // far: an escape, unless it is all there is
		}
		lat = min(max(lat+dir[0]*step, -9e8), 9e8)
		lon = min(max(lon+dir[1]*step, -18e8), 18e8)
		dt := []int64{0, -3, 5, 10, 30}[rng.Intn(5)]
		if steady {
			dt = step/grid + rng.Int63n(3) - 1
		}
		ts = min(max(ts+dt, 0), math.MaxUint32)
	}
	tr := latticeTrail(keys)
	if rng.Intn(2) == 0 {
		tr.SetAged(uint32(rng.Int63n(1 << 32)))
	}
	return tr
}

// TestPackedProperty: UnpackBlock(AppendPacked(t)) is t's block and trail —
// its last key, bounds and watermark — for random trails, and over them
// the packing writes every flag (a divisor where a trail's steps are on a
// coarse grid, a pace where its times follow its steps) and an escape; the
// entropy bound changes no packing's bytes (checkPacked). Their packings with a table on every field,
// and the skewed Δt case's, reach a one-bucket table, an 11-bit code and
// tables over leasts and over zig-zagged values; tabledBlock's 61 raw bits
// read back at every alignment a refill leaves. Each branch of both codes
// is checked.
func TestPackedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var flags [3]byte
	escaped, oneBucket, longest, under := false, false, uint8(0), [2]bool{} // under: a table over zig-zagged values, over leasts
	reach := func(tr *Trail) {
		p := tr.appendPacked(nil, tablesAlways)
		lens := packedTables(p)
		for f, h := range packedHead(p) {
			used := 0
			for _, l := range lens[f] {
				used, longest = used+int(min(l, 1)), max(longest, l)
			}
			oneBucket, under[h&flagFOR>>5] = oneBucket || used == 1, true
		}
	}
	for i := 0; i < 3000; i++ {
		tr := randomTrail(rng)
		for f, h := range packedHead(checkPacked(t, "random trail", tr)) {
			flags[f] |= h &^ 31
		}
		e := escapes(tr)
		escaped = escaped || e[0] || e[1] || e[2]
		reach(tr)
	}
	skewed := latticeTrail(packedCases()["skewed Δt"])
	if lens := packedTables(checkPacked(t, "skewed Δt", skewed)); lens[2] == nil {
		t.Error("skewed Δt: AppendPacked codes Δt with Rice codes")
	}
	reach(skewed)
	if flags != [3]byte{flagFOR | flagAged | flagGrid, flagFOR, flagFOR | flagPace} || !escaped || !oneBucket || longest != maxCodeLen || under != [2]bool{true, true} {
		t.Fatalf("flags written %08b, an escape %v, a one-bucket table %v, the longest code %d bits, tables over zig-zagged values and leasts %v: the trails reached too little of the code",
			flags, escaped, oneBucket, longest, under)
	}
	dts, ts := make([]int64, 70), int64(1_000)
	keys := [][3]int64{{0, 0, ts}}
	for i := range dts {
		dts[i] = rng.Int63n(1000)
		ts += dts[i]
		keys = append(keys, [3]int64{0, 0, ts})
	}
	want := latticeTrail(keys)
	got, tr, err := UnpackBlock(nil, tabledBlock(1_000, dts))
	if err != nil || !bytes.Equal(got, want.AppendBlock(nil)) {
		t.Fatalf("tabledBlock unpacks to %x, %v\nwant %x", got, err, want.AppendBlock(nil))
	}
	sameTrail(t, "tabledBlock", &tr, want)
}

// tabledBlock writes, as no packer would, the packed block of a key at
// (0, 0, t0) and a key more in place after each of dts: across and along
// Rice-coded zeros, of parameters 1 and 0, then Δt under a table of bucket
// 248 alone — a 1-bit code and 61 raw bits, 65 bits a key, so the raw bits
// meet a refill at every alignment. A Δt is coded as 2⁶³ + r + dt under the
// least 2⁶³ − r, r a pattern of 61 bits, so that the raw bits are set and
// clear.
func tabledBlock(t0 int64, dts []int64) []byte {
	const r = 0x1555_5555_5555_5555
	b := binary.AppendUvarint(nil, uint64(1+len(dts)))
	b = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(b, 0), 0), uint64(t0))
	b = binary.AppendVarint(append(b, 1, 0, flagFOR|tableK), 1<<63-r)
	w := bitWriter{dst: append(b, 0xf8, 0x01, 1, 1)} // the table: first bucket 248, one bucket, its code 1 bit
	for _, dt := range dts {
		w.put(0, 3)                  // across and along
		w.put(uint64(r+dt)<<1, 1+61) // Δt: the code 0, then the raw bits
	}
	for i := uint(0); i < w.n; i += 8 {
		w.dst = append(w.dst, byte(w.acc>>i))
	}
	return w.dst
}

// TestBucket: bucket puts a value where the format says — under 8 in its
// own bucket, else of bit length c in bucket 8 + 4(c − 4) plus its two bits
// under the leading one, c − 3 bits raw — and a value is its bucket's
// bucketBase plus its raw bits; the 252 buckets end with 2⁶⁴ − 1.
func TestBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := []uint64{math.MaxUint64}
	for u := uint64(0); u < 4096; u++ {
		vals = append(vals, u)
	}
	for c := 1; c < 64; c++ {
		vals = append(vals, 1<<c-1, 1<<c, 1<<c+1, 3<<(c-1), rng.Uint64()>>(64-c))
	}
	for _, u := range vals {
		want, wantRaw := uint(u), uint(0)
		if c := uint(bits.Len64(u)); u >= 8 {
			want, wantRaw = 8+4*(c-4)+uint(u>>(c-3))&3, c-3
		}
		b, r := bucket(u)
		if b != want || r != wantRaw || bucketBase(b)|u&(1<<r-1) != u {
			t.Fatalf("bucket(%d) = %d, %d raw bits, base %d; want %d, %d", u, b, r, bucketBase(b), want, wantRaw)
		}
	}
	if b, _ := bucket(math.MaxUint64); b != buckets-1 {
		t.Fatalf("2⁶⁴ − 1 falls in bucket %d of %d", b, buckets)
	}
}

// packV4 packs t as segment versions 3 and 4 did — the zig-zagged Δlat,
// Δlon and Δt as they are, each under its cheapest Rice parameter: the
// size reference the guards below hold this packing to.
func packV4(t *Trail) []byte {
	b := t.AppendBlock(nil)
	var vals []uint64 // the block's varints, zig-zagged as it holds them
	for off := 0; off < len(b); {
		v, w := binary.Uvarint(b[off:])
		vals, off = append(vals, v), off+w
	}
	dst := b[:0]
	for _, v := range vals[:min(len(vals), 4)] {
		dst = binary.AppendUvarint(dst, v)
	}
	deltas := vals[min(len(vals), 4):]
	if len(deltas) == 0 {
		return dst
	}
	var k [3]uint
	for f := range k {
		cost := math.MaxInt
		for kf := uint(0); kf <= maxRiceK; kf++ {
			c := 0
			for i := f; i < len(deltas); i += 3 {
				if q := deltas[i] >> kf; q < riceEscape {
					c += int(q) + 1 + int(kf)
				} else {
					c += escapeBits
				}
			}
			if c < cost {
				k[f], cost = kf, c
			}
		}
	}
	w := bitWriter{dst: append(dst, byte(k[0]), byte(k[1]), byte(k[2]))}
	for i, v := range deltas {
		w.rice(v, k[i%3])
	}
	for i := uint(0); i < w.n; i += 8 {
		w.dst = append(w.dst, byte(w.acc>>i))
	}
	return w.dst
}

// planeKey is the lattice key of a point x, y metres on the flat plane at
// time ts.
func planeKey(x, y float64, ts uint32) [3]int64 {
	return [3]int64{int64(math.Round(y / MetersPerDegree * 1e7)), int64(math.Round(x / MetersPerDegree * 1e7)), int64(ts)}
}

// guardTracks are lattice keys of the shapes the guards pack: the
// registered "fbqs"'s key points (10 m, on its grid) of synth.Walk tracks, a
// street grid turned 30° with a key at every corner, and Gaussian random
// walks; each in chunks of 16 keys, as an engine cuts them, and whole, as
// compaction merges them.
func guardTracks(rng *rand.Rand) map[string][][3]int64 {
	out := map[string][][3]int64{}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := synth.DefaultWalkConfig(seed)
		cfg.N = 5000
		comp, err := stream.New("fbqs", 10)
		if err != nil {
			panic(err)
		}
		for _, p := range stream.Compress(comp, synth.Walk(cfg).Points()) {
			out["walk"] = append(out["walk"], planeKey(p.X, p.Y, uint32(p.T)))
		}
	}
	sin, cos := math.Sincos(math.Pi / 6)
	x, y, ts, dir := 0.0, 0.0, uint32(1_700_000_000), 0
	for i := 0; i < 3000; i++ {
		out["grid"] = append(out["grid"], planeKey(x*cos-y*sin, x*sin+y*cos, ts))
		dir = (dir + []int{1, 3}[rng.Intn(2)]) % 4 // turn left or right at each corner
		l := 40 + 80*float64(rng.Intn(4))          // blocks of 80 m, one to four long
		x, y = x+[]float64{l, 0, -l, 0}[dir], y+[]float64{0, l, 0, -l}[dir]
		ts += uint32(l / 10)
	}
	x, y = 0, 0
	for i := 0; i < 3000; i++ {
		out["random walk"] = append(out["random walk"], planeKey(x, y, ts))
		x, y, ts = x+rng.NormFloat64()*50, y+rng.NormFloat64()*50, ts+uint32(1+rng.Intn(30))
	}
	return out
}

// v5Digests are the SHA-256 of the packings with no table, in
// TestPackedNoWorse's order, of the records of the guard tracks whose keys
// no grid holds, as version 5's packer wrote them.
var v5Digests = map[string]string{
	"grid":        "f39d98211037473e99883e347785038e3984025054889b67660b82baf3d3d567",
	"random walk": "681a5a55d17af51e971d00116593a99695ac8f2656046e85a301ff5ddefdbdca",
}

// TestPackedNoWorse: on every record of every guard track this packing
// costs at most 2 B more than version 4's and no more than with neither
// table nor pace, and on the grid, whose turns the frame of the previous
// step turns onto one axis, less overall. A record off every grid — each of
// the grid's and the random walk's — carries no divisor and, with neither,
// packs to exactly version 5's bytes: so does every such record that uses
// neither, as checkPacked holds it to that packing. The walk's, on "fbqs"'s
// grid, pack to under three quarters of version 4's.
func TestPackedNoWorse(t *testing.T) {
	for name, keys := range guardTracks(rand.New(rand.NewSource(30))) {
		var v4, v7, whole, rice int
		digest := sha256.New()
		for lo := 0; lo+1 < len(keys); lo += 15 {
			for _, rec := range [][][3]int64{keys[lo:min(lo+16, len(keys))], keys[lo:]} {
				tr := latticeTrail(rec)
				packed := checkPacked(t, name, tr) // no larger than with no table
				a, b := len(packV4(tr)), len(packed)
				if b > a+2 {
					t.Fatalf("%s: a %d-key record packs to %d B, %d B at version 4", name, len(rec), b, a)
				}
				if packedHead(packed)[0]&flagGrid != 0 && name != "walk" {
					t.Fatalf("%s: a %d-key record off every grid carries a divisor", name, len(rec))
				}
				if len(rec) == 16 {
					v4, v7 = v4+a, v7+b
				}
				if len(rec) == len(keys) {
					whole, rice = b, len(tr.appendPacked(nil, tablesNever|paceNever))
				}
				digest.Write(tr.appendPacked(nil, tablesNever|paceNever))
			}
		}
		t.Logf("%s: 16-key records %d B at version 4, %d B (%.3f); the whole track %d B, %d B with neither table nor pace (%.3f)",
			name, v4, v7, float64(v7)/float64(v4), whole, rice, float64(whole)/float64(rice))
		if want, ok := v5Digests[name]; ok && fmt.Sprintf("%x", digest.Sum(nil)) != want {
			t.Fatalf("%s: records off every grid pack with no table to other bytes than version 5's", name)
		}
		if name == "grid" && v7 >= v4 || name == "walk" && 4*v7 >= 3*v4 {
			t.Fatalf("%s: %d B against version 4's %d", name, v7, v4)
		}
	}
}

// fbqsKeys are the lattice keys the registered "fbqs" keeps (10 m) of pts.
func fbqsKeys(pts []core.Point) (keys [][3]int64) {
	comp, err := stream.New("fbqs", 10)
	if err != nil {
		panic(err)
	}
	for _, p := range stream.Compress(comp, pts) {
		keys = append(keys, planeKey(p.X, p.Y, uint32(p.T)))
	}
	return keys
}

// fieldBits is what each field of tr packed in mode costs, in bits: its
// codes, its least and table, and Δt's pace.
func fieldBits(tr *Trail, mode int) (b [3]int) {
	var p packBufs
	_, _, q, c := p.codeFields(tr, mode)
	for f := range b {
		b[f] = c[f].size()
	}
	if q > 0 {
		b[2] += 8 * varintBytes(uint64(q))
	}
	return b
}

// TestPacedTraffic: the pace on traffic the bench does not run — "fbqs"'s
// key points of synth.Walk (1 Hz), synth.Vehicle (30 s while driving),
// synth.Bat (60 s in flight) and a street grid driven at a steady 10 m/s, a
// fix a second, turning every 2 to 4 fixes — each track in 16-key chunks, as
// an engine cuts them, and whole, as compaction merges them. No record
// packs larger than with no pace, and the grid's whole track takes one. It
// logs each whole track's bits a key per field with the pace and without,
// and what pricing the pace on the 16-key chunks, which AppendPacked does
// not, would save.
func TestPacedTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var grid []core.Point
	x, y, dir := 0.0, 0.0, 0
	for i := 0; i < 20_000; i++ {
		if grid = append(grid, core.Point{X: x, Y: y, T: float64(1_700_000_000 + i)}); i%3 == 0 && rng.Intn(2) == 0 || i%4 == 0 {
			dir = (dir + []int{1, 3}[rng.Intn(2)]) % 4
		}
		x, y = x+[]float64{10, 0, -10, 0}[dir], y+[]float64{0, 10, 0, -10}[dir]
	}
	cfg := synth.DefaultWalkConfig(1)
	cfg.N = 20_000
	for _, track := range []struct {
		name string
		pts  []core.Point
	}{
		{"walk", synth.Walk(cfg).Points()},
		{"vehicle", synth.Vehicle(synth.DefaultVehicleConfig(1)).Points()},
		{"bat", synth.Bat(synth.DefaultBatConfig(1)).Points()},
		{"grid", grid},
	} {
		keys := fbqsKeys(track.pts)
		chunks, saved := 0, 0
		for lo := 0; lo+1 < len(keys); lo += 15 {
			for _, rec := range [][][3]int64{keys[lo:min(lo+16, len(keys))], keys[lo:]} {
				tr := latticeTrail(rec)
				packed, v7 := tr.AppendPacked(nil), tr.appendPacked(nil, paceNever)
				if len(packed) > len(v7) {
					t.Fatalf("%s: a %d-key record packs to %d B with the pace, %d B without", track.name, len(rec), len(packed), len(v7))
				}
				if len(rec) == len(keys) && track.name == "grid" && !paced(packed) {
					t.Fatalf("%s: the whole track takes no pace", track.name)
				}
				if len(rec) == 16 {
					chunks += len(v7)
					saved += len(v7) - min(len(v7), len(tr.appendPacked(nil, paceAlways)))
				}
			}
		}
		whole := latticeTrail(keys)
		with, without := fieldBits(whole, 0), fieldBits(whole, paceNever)
		perKey := func(b [3]int) string {
			m := float64(len(keys) - 1)
			return fmt.Sprintf("across %.2f, along %.2f, Δt %.2f", float64(b[0])/m, float64(b[1])/m, float64(b[2])/m)
		}
		t.Logf("%s: %d keys; bits a key with the pace %s, without %s; the pace priced on 16-key chunks would save %d of %d B (%.2f %%)",
			track.name, len(keys), perKey(with), perKey(without), saved, chunks, 100*float64(saved)/float64(chunks))
	}
}

// TestPaceBounds: a pace stays where no product a valid record holds
// overflows int64. ΣΔt is the last time less the first, under 2³², so
// 2¹³·ΣΔt fits; a step's longer component is under 2³² grid units, so the
// sum over PackedBound's longest record fits, and so does its product with
// a pace up to maxPace. No record takes a pace past maxPace — one step of a
// unit in 2³² − 1 s would be 2⁴⁴ — and one just under it, 8 193 unit steps
// in 2³² − 1 s, packs and unpacks.
func TestPaceBounds(t *testing.T) {
	const longest, widest = 466_019, 3_600_000_000 // keys a merged record holds; the antimeridian hop
	if longest*widest > math.MaxInt64/2 || widest*maxPace+1<<paceBits > math.MaxInt64 || math.MaxUint32<<(paceBits+1) > math.MaxInt64 {
		t.Fatal("a pace's sums or products overflow int64")
	}
	if one := latticeTrail([][3]int64{{0, 0, 0}, {1, 0, math.MaxUint32}}); paced(one.appendPacked(nil, paceAlways)) {
		t.Fatal("one unit step in 2³² − 1 s takes a pace past maxPace")
	}
	keys := make([][3]int64, 8194)
	for i := range keys {
		keys[i] = [3]int64{int64(i), 0, int64(i) * math.MaxUint32 / 8193}
	}
	tr := latticeTrail(keys)
	checkPacked(t, "8 193 unit steps", tr)
	if _, _, q, _ := new(packBufs).codeFields(tr, paceAlways); q <= maxPace/2 || q > maxPace || !paced(tr.appendPacked(nil, paceAlways)) {
		t.Fatalf("8 193 unit steps in 2³² − 1 s: pace %d, want under maxPace and taken", q)
	}
}

// TestPackedSmaller: on a random walk the packed block is at least a
// tenth smaller than the delta-varint block.
func TestPackedSmaller(t *testing.T) {
	keys := packedCases()["random walk over the antimeridian"]
	tr := latticeTrail(keys)
	packed, block := len(tr.AppendPacked(nil)), len(tr.AppendBlock(nil))
	t.Logf("%d keys: packed %d B (%.2f B/key), delta-varint %d B (%.2f B/key)",
		len(keys), packed, float64(packed)/float64(len(keys)), block, float64(block)/float64(len(keys)))
	if packed*10 > block*9 {
		t.Fatalf("packed %d B is more than 90%% of the delta-varint %d B", packed, block)
	}
}

// TestUnpackRefuses: what Enters(block, nil) refuses, and what no packer
// writes — a parameter past 24 but tableK, a flag where none is, a divisor
// or a pace out of range or cut short, a table that is no code or covers
// buckets that do not exist, a code no bucket has, bytes or set bits after
// the last code.
func TestUnpackRefuses(t *testing.T) {
	tr := latticeTrail(packedCases()["two keys"])
	good := tr.AppendPacked(nil)
	// good ends in the three parameter bytes, then one byte of codes.
	k := len(good) - 4
	// Five bits of codes, then padding: set its top bit.
	padded := latticeTrail([][3]int64{{0, 0, 0}, {0, 0, 1}}).AppendPacked(nil)
	padded = append(padded[:len(padded)-1], padded[len(padded)-1]|0x80)
	cases := map[string]struct {
		b    []byte
		want error
	}{
		"empty":            {nil, ErrShortBuffer},
		"no first key":     {[]byte{2}, ErrShortBuffer},
		"no parameters":    {good[:k], ErrShortBuffer},
		"codes cut":        {good[:len(good)-1], ErrShortBuffer},
		"trailing byte":    {append(bytes.Clone(good), 0), errTrailing},
		"padding set":      {padded, errTrailing},
		"one key trailing": {append(latticeTrail(packedCases()["one key"]).AppendPacked(nil), 0), errTrailing},
		"first key north":  {rawPacked([3]int64{900_000_001, 0, 0}), ErrRange},
		"a delta north":    {rawPacked([3]int64{900_000_000, 0, 0}, [3]int64{1, 0, 0}), ErrRange},
		"a delta past 2³²": {rawPacked([3]int64{0, 0, math.MaxUint32}, [3]int64{0, 0, 1}), ErrRange},
		"a time below 0":   {rawPacked([3]int64{0, 0, 0}, [3]int64{0, 0, -1}), ErrRange},
	}
	// A divisor follows the head under flagGrid, then a pace under
	// flagPace: as AppendPacked writes them, the divisor 2 up and under 2³²,
	// as no step reaches, the pace 1 up and maxPace at most. The pace's flag
	// is the divisor's bit on the third byte: moved to the first, a pace of
	// 1 reads as a divisor of 1.
	cutPace := withHeadVarint(2, flagPace, 1<<20) // three bytes of varint, then one of codes
	for name, b := range map[string][]byte{
		"divisor 0":               withHeadVarint(0, flagGrid, 0),
		"divisor 1":               withHeadVarint(0, flagGrid, 1),
		"divisor 2³²":             withHeadVarint(0, flagGrid, 1<<32),
		"pace 0":                  withHeadVarint(2, flagPace, 0),
		"a pace past maxPace":     withHeadVarint(2, flagPace, maxPace+1),
		"a pace cut short":        cutPace[:len(cutPace)-3],
		"a pace flag on h_across": withHeadVarint(0, flagPace, 1),
	} {
		cases[name] = struct {
			b    []byte
			want error
		}{b, errHead}
	}
	// Each head byte is checked on its own: a flag on one lifts no other's
	// parameter past 24; flagAged and flagGrid ride the first byte only,
	// flagPace the third.
	for name, h := range map[string][3]byte{
		"parameter 25":                      {0, maxRiceK + 1, 0},
		"parameter 25 beside a flag":        {flagFOR, 0, maxRiceK + 1},
		"parameter 30 under a flag":         {flagAged | 30, 0, 0},
		"a watermark on the third":          {0, 0, flagAged},
		"a divisor or pace flag on h_along": {0, flagGrid, 0},
	} {
		bad := bytes.Clone(good)
		copy(bad[k:], h[:])
		cases[name] = struct {
			b    []byte
			want error
		}{bad, errHead}
	}
	// The two keys with a table on every field: no least, so the first
	// field's table — bucket 2 alone, a 1-bit code — starts right after the
	// head, and the codes are one byte, three 0 bits.
	tabled := tr.appendPacked(nil, tablesAlways)
	at := headOffset(tabled) + 3
	if !bytes.Equal(tabled[at:at+3], []byte{2, 1, 1}) {
		t.Fatalf("fixture: the first table is %x", tabled[at:at+3])
	}
	withTable := func(table ...byte) []byte { return slices.Concat(tabled[:at], table, tabled[at+3:]) }
	for name, c := range map[string]struct {
		b    []byte
		want error
	}{
		"over-subscribed lengths":        {withTable(2, 3, 0x11, 0x01), errTable},
		"under-subscribed lengths":       {withTable(2, 2, 0x21), errTable},
		"a lone 2-bit code":              {withTable(2, 1, 0x02), errTable},
		"no code at all":                 {withTable(2, 2, 0x00), errTable},
		"a code length of 12":            {withTable(2, 2, 0xc1), errTable},
		"a 12-bit code past a full code": {withTable(2, 3, 0x11, 0x0c), errTable},
		"the padding nibble set":         {withTable(2, 1, 0x11), errTable},
		"no bucket":                      {withTable(2, 0), errTable},
		"buckets past the last":          {withTable(0xf8, 0x01, 5, 0x11, 0, 0), errTable},
		"a first bucket past":            {withTable(0xfc, 0x01, 1, 0x01), errTable},
		"a table cut in its count":       {tabled[:at+1], ErrShortBuffer},
		"a table cut in its lengths":     {withTable(2, 3)[:at+2], ErrShortBuffer},
		"a table cut in its last length": {withTable(2, 3, 0x11)[:at+3], ErrShortBuffer},
		"a code no bucket has":           {append(bytes.Clone(tabled[:len(tabled)-1]), 1), errTable},
	} {
		cases[name] = c
	}
	for name, c := range cases {
		// Each after a block whose table fills every entry of the pooled
		// lookup tables: a refusal reads nothing a decode left there.
		if _, _, err := UnpackBlock(nil, withTable(2, 2, 0x11)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := UnpackBlock(nil, c.b); err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: UnpackBlock(%x) = %v, want %v", name, c.b, err, c.want)
		}
	}
	// The controls: a divisor of 2 reads, so do paces of 1 and maxPace, and
	// so does the first field under two 1-bit codes, or under a table from
	// bucket 0 whose first two buckets have no code.
	for _, b := range [][]byte{withHeadVarint(0, flagGrid, 2), withHeadVarint(2, flagPace, 1), withHeadVarint(2, flagPace, maxPace)} {
		if _, _, err := UnpackBlock(nil, b); err != nil {
			t.Fatalf("%x: %v", b, err)
		}
	}
	for _, table := range [][]byte{{2, 2, 0x11}, {0, 3, 0x00, 0x01}} {
		if got, _, err := UnpackBlock(nil, withTable(table...)); err != nil || !bytes.Equal(got, tr.AppendBlock(nil)) {
			t.Fatalf("table %x: %x, %v", table, got, err)
		}
	}
}

// withHeadVarint is rawPacked's block of one step (0, 0, 1) — five bits of
// codes — with flag on head byte f and v after the head.
func withHeadVarint(f int, flag byte, v uint64) []byte {
	b := rawPacked([3]int64{0, 0, 0}, [3]int64{0, 0, 1})
	h := len(b) - 4 // the three parameter bytes, then the byte of codes
	b[h+f] |= flag
	return slices.Concat(b[:h+3], binary.AppendUvarint(nil, v), b[h+3:])
}

// rawPacked writes a packed block of a first key and deltas with no range
// check — what no trail could hold — every parameter 0.
func rawPacked(first [3]int64, deltas ...[3]int64) []byte {
	b := binary.AppendUvarint(nil, uint64(1+len(deltas)))
	b = binary.AppendUvarint(binary.AppendVarint(binary.AppendVarint(b, first[0]), first[1]), uint64(first[2]))
	if len(deltas) == 0 {
		return b
	}
	w := bitWriter{dst: append(b, 0, 0, 0)}
	for _, d := range deltas {
		for _, v := range d {
			w.rice(uint64(v<<1^v>>63), 0)
		}
	}
	for i := uint(0); i < w.n; i += 8 {
		w.dst = append(w.dst, byte(w.acc>>i))
	}
	return w.dst
}

// FuzzPackedBlock: arbitrary bytes never panic UnpackBlock, and whatever it
// accepts is a block Enters(block, nil) accepts whose trail, watermark and
// all, packs back to itself; the same bytes read as lattice keys pack and
// unpack to their trail's bytes. The seeds hold every packed case, with a
// watermark and without, and each case's keys moved onto grids of 100 and
// 7 lattice steps: blocks with a divisor; each packed with a table on every
// field too (one-bucket tables, tables over leasts and zig-zagged values)
// and with the pace wherever it has one to take, the skewed Δt case whole
// (an 11-bit code) and a tabledBlock (61 raw bits).
func FuzzPackedBlock(f *testing.F) {
	cases := packedCases()
	for name, keys := range packedCases() {
		for _, g := range []int64{100, 7} {
			on := make([][3]int64, len(keys))
			for i, k := range keys {
				on[i] = [3]int64{k[0] / g * g, k[1] / g * g, k[2]}
			}
			cases[fmt.Sprintf("%s on a grid of %d", name, g)] = on
		}
	}
	for _, keys := range cases {
		keys = keys[:min(len(keys), 40)] // small seeds: the fuzzer minimizes what they lead to
		tr := latticeTrail(keys)
		f.Add(tr.AppendPacked(nil))
		f.Add(tr.appendPacked(nil, tablesAlways))
		f.Add(tr.appendPacked(nil, tablesNever|paceAlways))
		tr.SetAged(uint32(keys[len(keys)/2][2]))
		f.Add(tr.AppendPacked(nil))
		b := make([]byte, 0, 12*len(keys))
		for _, k := range keys {
			b = binary.LittleEndian.AppendUint32(b, uint32(k[0]))
			b = binary.LittleEndian.AppendUint32(b, uint32(k[1]))
			b = binary.LittleEndian.AppendUint32(b, uint32(k[2]))
		}
		f.Add(b)
	}
	f.Add(latticeTrail(cases["skewed Δt"]).appendPacked(nil, tablesAlways))
	f.Add(tabledBlock(7, []int64{0, 1, 30, 5, 2}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if block, unpacked, err := UnpackBlock(nil, data); err == nil {
			if !servable(block) {
				t.Fatalf("UnpackBlock accepted %x as %x, which Enters(nil) refuses", data, block)
			}
			if _, err := OpenTrail(block); err != nil {
				t.Fatalf("unpacked block does not open: %v", err)
			}
			checkPacked(t, "unpacked", &unpacked)
		}
		var keys [][3]int64
		for b := data; len(b) >= 12; b = b[12:] {
			u := binary.LittleEndian.Uint32
			lat := int64(int32(u(b))) % 900_000_001
			lon := int64(int32(u(b[4:]))) % 1_800_000_001
			keys = append(keys, [3]int64{lat, lon, int64(u(b[8:]))})
		}
		tr := latticeTrail(keys)
		if len(data)%2 == 1 && len(keys) > 0 {
			tr.SetAged(uint32(keys[0][2]))
		}
		checkPacked(t, "keys", tr)
	})
}
