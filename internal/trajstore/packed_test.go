package trajstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

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
// lat pole to pole), Δt of 0, negative and 2³²−1, and a field per case
// whose one large delta among many zeros is written as an escape.
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
	return cases
}

// escapes reports, per field (across, along, Δt), whether packing t
// writes an escape: some code's quotient under the parameter AppendPacked
// chooses reaches riceEscape.
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
		head, _ := chooseCode(vals[f:], t.Len()-1, lo[f])
		for i := f; i < len(vals); i += 3 {
			esc[f] = esc[f] || uint64(vals[i])>>(head&31) >= riceEscape
		}
	}
	return esc
}

// checkPacked packs t and requires the unpacked block to be t's own bytes
// and its trail to read as t down to the last key, the packed size to be
// what the choice of parameters costed, and the block to be no larger than
// PackedBound.
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
	return packed
}

func TestPackedRoundTrip(t *testing.T) {
	var seen [3]bool
	for name, keys := range packedCases() {
		tr := latticeTrail(keys)
		checkPacked(t, name, tr)
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
	n, off := binary.Uvarint(packed)
	for f := 0; f < 3 && n > 0; f++ {
		_, w := binary.Uvarint(packed[off:])
		off += w
	}
	if n < 2 {
		return nil
	}
	return packed[off : off+3]
}

// randomTrail is a trail of up to 60 keys — one and two keys often —
// whose steps mix what the packing must carry: zero and negative Δt, a
// far jump now and then (an escape), steps on a coarse grid, runs in one
// direction (a field above 0) and back; and, on half of them, an ageing
// watermark.
func randomTrail(rng *rand.Rand) *Trail {
	n := []int{1, 2, 3, 1 + rng.Intn(60)}[rng.Intn(4)]
	grid := []int64{1, 1, 100, 1000}[rng.Intn(4)]
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
		ts = min(max(ts+[]int64{0, -3, 5, 10, 30}[rng.Intn(5)], 0), math.MaxUint32)
	}
	tr := latticeTrail(keys)
	if rng.Intn(2) == 0 {
		tr.SetAged(uint32(rng.Int63n(1 << 32)))
	}
	return tr
}

// TestPackedProperty: UnpackBlock(AppendPacked(t)) is t's block and trail —
// its last key, bounds and watermark — for random trails, and over them
// the packing writes every flag and an escape: each of its branches is
// checked.
func TestPackedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var flags byte
	escaped := false
	for i := 0; i < 3000; i++ {
		tr := randomTrail(rng)
		for _, h := range packedHead(checkPacked(t, "random trail", tr)) {
			flags |= h &^ 31
		}
		e := escapes(tr)
		escaped = escaped || e[0] || e[1] || e[2]
	}
	if flags != flagFOR|flagAged || !escaped {
		t.Fatalf("flags written %08b, an escape %v: the trails reached too little of the code", flags, escaped)
	}
}

// packV4 packs t as segment versions 3 and 4 did — the zig-zagged Δlat,
// Δlon and Δt as they are, each under its cheapest Rice parameter — which
// the guards below hold this packing to.
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

// TestPackedV4Reads: packV4's blocks are what UnpackV4Block reads back, so
// the guards below compare against the real thing.
func TestPackedV4Reads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		tr := randomTrail(rng)
		got, back, err := UnpackV4Block(nil, packV4(tr))
		if err != nil || !bytes.Equal(got, tr.AppendBlock(nil)) || back.Aged() != 0 {
			t.Fatalf("a version-4 packing reads back as %x, aged %d, %v; want %x", got, back.Aged(), err, tr.AppendBlock(nil))
		}
	}
}

// guardTracks are lattice keys of the shapes the guards pack: FBQS's key
// points (10 m) of synth.Walk tracks, a street grid turned 30° with a key
// at every corner, and Gaussian random walks; each in chunks of 16 keys,
// as an engine cuts them, and whole, as compaction merges them.
func guardTracks(rng *rand.Rand) map[string][][3]int64 {
	lattice := func(x, y float64, ts uint32) [3]int64 { // metres on the flat plane
		return [3]int64{int64(math.Round(y / MetersPerDegree * 1e7)), int64(math.Round(x / MetersPerDegree * 1e7)), int64(ts)}
	}
	out := map[string][][3]int64{}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := synth.DefaultWalkConfig(seed)
		cfg.N = 5000
		comp, err := stream.New("fbqs", 10)
		if err != nil {
			panic(err)
		}
		for _, p := range stream.Compress(comp, synth.Walk(cfg).Points()) {
			out["walk"] = append(out["walk"], lattice(p.X, p.Y, uint32(p.T)))
		}
	}
	sin, cos := math.Sincos(math.Pi / 6)
	x, y, ts, dir := 0.0, 0.0, uint32(1_700_000_000), 0
	for i := 0; i < 3000; i++ {
		out["grid"] = append(out["grid"], lattice(x*cos-y*sin, x*sin+y*cos, ts))
		dir = (dir + []int{1, 3}[rng.Intn(2)]) % 4 // turn left or right at each corner
		l := 40 + 80*float64(rng.Intn(4))          // blocks of 80 m, one to four long
		x, y = x+[]float64{l, 0, -l, 0}[dir], y+[]float64{0, l, 0, -l}[dir]
		ts += uint32(l / 10)
	}
	x, y = 0, 0
	for i := 0; i < 3000; i++ {
		out["random walk"] = append(out["random walk"], lattice(x, y, ts))
		x, y, ts = x+rng.NormFloat64()*50, y+rng.NormFloat64()*50, ts+uint32(1+rng.Intn(30))
	}
	return out
}

// TestPackedNoWorse: on every record of every guard track this packing
// costs at most 2 B more than version 4's, and on the grid, whose
// turns the frame of the previous step turns onto one axis, less overall.
func TestPackedNoWorse(t *testing.T) {
	for name, keys := range guardTracks(rand.New(rand.NewSource(30))) {
		var v4, v5 int
		for _, chunk := range [][][3]int64{keys} {
			for lo := 0; lo+1 < len(chunk); lo += 15 {
				for _, rec := range [][][3]int64{chunk[lo:min(lo+16, len(chunk))], chunk[lo:]} {
					tr := latticeTrail(rec)
					a, b := len(packV4(tr)), len(checkPacked(t, name, tr))
					if b > a+2 {
						t.Fatalf("%s: a %d-key record packs to %d B, %d B at version 4", name, len(rec), b, a)
					}
					if len(rec) == 16 {
						v4, v5 = v4+a, v5+b
					}
				}
			}
		}
		t.Logf("%s: 16-key records %d B at version 4, %d B (%.3f)", name, v4, v5, float64(v5)/float64(v4))
		if name == "grid" && v5 >= v4 {
			t.Fatalf("grid: %d B, not less than version 4's %d", v5, v4)
		}
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
// writes — a parameter past 24, a flag where none is, bytes or set bits
// after the last code.
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
	// Each head byte is checked on its own: a flag on one lifts no other's
	// parameter past 24; bit 6 is no flag; flagAged rides the first byte only.
	for name, h := range map[string][3]byte{
		"parameter 25":               {0, maxRiceK + 1, 0},
		"parameter 25 beside a flag": {flagFOR, 0, maxRiceK + 1},
		"parameter 31 under a flag":  {flagAged | 31, 0, 0},
		"bit 6":                      {1 << 6, 0, 0},
		"a watermark on the third":   {0, 0, flagAged},
	} {
		bad := bytes.Clone(good)
		copy(bad[k:], h[:])
		cases[name] = struct {
			b    []byte
			want error
		}{bad, errHead}
	}
	for name, c := range cases {
		if _, _, err := UnpackBlock(nil, c.b); err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: UnpackBlock(%x) = %v, want %v", name, c.b, err, c.want)
		}
	}
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
// watermark and without.
func FuzzPackedBlock(f *testing.F) {
	for _, keys := range packedCases() {
		keys = keys[:min(len(keys), 40)] // small seeds: the fuzzer minimizes what they lead to
		tr := latticeTrail(keys)
		f.Add(tr.AppendPacked(nil))
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
