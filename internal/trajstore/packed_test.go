package trajstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
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
	return cases
}

// escapes reports, per field, whether packing t writes an escape: some
// delta's quotient under the chosen parameter reaches riceEscape.
func escapes(t *Trail) (esc [3]bool) {
	b := t.AppendBlock(nil)
	_, off := binary.Uvarint(b)
	var deltas [3][]uint64 // zig-zagged, as the block holds them
	for i := 0; off < len(b); i++ {
		v, n := binary.Uvarint(b[off:])
		if off += n; i >= 3 {
			deltas[i%3] = append(deltas[i%3], v)
		}
	}
	for f, vs := range deltas {
		var tally riceTally
		for _, v := range vs {
			tally.add(v)
		}
		for _, v := range vs {
			esc[f] = esc[f] || v>>tally.best(len(vs)) >= riceEscape
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
		t.Fatalf("escapes written per field (lat, lon, t) = %v; the cases must reach all three", seen)
	}
	var empty Trail
	if got, _, err := UnpackBlock(nil, empty.AppendPacked(nil)); err != nil || !bytes.Equal(got, empty.AppendBlock(nil)) {
		t.Fatalf("empty trail: %x, %v", got, err)
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
// writes — a parameter past 24, bytes or set bits after the last code.
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
	bad := bytes.Clone(good)
	bad[k+1] = maxRiceK + 1
	cases["parameter 25"] = struct {
		b    []byte
		want error
	}{bad, nil}
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
// accepts is a block Enters(block, nil) accepts, which packs back to itself; the
// same bytes read as lattice keys pack and unpack to their trail's bytes.
func FuzzPackedBlock(f *testing.F) {
	for _, keys := range packedCases() {
		keys = keys[:min(len(keys), 40)] // small seeds: the fuzzer minimizes what they lead to
		tr := latticeTrail(keys)
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
		if block, _, err := UnpackBlock(nil, data); err == nil {
			if !servable(block) {
				t.Fatalf("UnpackBlock accepted %x as %x, which Enters(nil) refuses", data, block)
			}
			tr, err := OpenTrail(block)
			if err != nil {
				t.Fatalf("unpacked block does not open: %v", err)
			}
			checkPacked(t, "unpacked", &tr)
		}
		var keys [][3]int64
		for b := data; len(b) >= 12; b = b[12:] {
			u := binary.LittleEndian.Uint32
			lat := int64(int32(u(b))) % 900_000_001
			lon := int64(int32(u(b[4:]))) % 1_800_000_001
			keys = append(keys, [3]int64{lat, lon, int64(u(b[8:]))})
		}
		checkPacked(t, "keys", latticeTrail(keys))
	})
}
