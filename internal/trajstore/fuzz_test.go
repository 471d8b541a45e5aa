package trajstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// fuzzSeedKeys are representative valid trajectories used to seed the
// fuzz targets: ordinary values, the poles/antimeridian boundary, tiny
// negative deltas and duplicate timestamps.
func fuzzSeedKeys() [][]GeoKey {
	return [][]GeoKey{
		{{Lat: 0, Lon: 0, T: 0}},
		{{Lat: -37.8136, Lon: 144.9631, T: 1700000000}, {Lat: -37.8140, Lon: 144.9629, T: 1700000060}},
		{{Lat: 90, Lon: 180, T: math.MaxUint32}, {Lat: -90, Lon: -180, T: math.MaxUint32}},
		{{Lat: 1e-7, Lon: -1e-7, T: 5}, {Lat: 0, Lon: 0, T: 5}, {Lat: -1e-7, Lon: 1e-7, T: 4}},
	}
}

// FuzzDeltaDecode checks DeltaDecode never panics or over-allocates on
// arbitrary input, and that it inverts DeltaEncode: whatever it accepts
// re-encodes, and decode→encode→decode is a fixed point.
func FuzzDeltaDecode(f *testing.F) {
	for _, keys := range fuzzSeedKeys() {
		enc, err := DeltaEncode(keys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:cut])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DeltaDecode(data)
		if err != nil {
			return
		}
		enc, err := DeltaEncode(keys)
		if err != nil {
			t.Fatalf("decoded keys do not re-encode: %v", err)
		}
		again, err := DeltaDecode(enc)
		if err != nil {
			t.Fatalf("re-encoded output failed to decode: %v", err)
		}
		if len(again) != len(keys) {
			t.Fatalf("round trip changed length %d → %d", len(keys), len(again))
		}
		for i := range keys {
			if again[i] != keys[i] {
				t.Fatalf("round trip changed key %d: %+v → %+v", i, keys[i], again[i])
			}
		}
	})
}

// TestDeltaRoundTripQuantizationBoundary is the round-trip property test
// at the wire format's 1e-7-degree quantization boundary: the poles and
// antimeridian, sub-quantum coordinates that round to adjacent quanta,
// negative deltas, and duplicate/decreasing timestamps.
func TestDeltaRoundTripQuantizationBoundary(t *testing.T) {
	cases := []struct {
		name string
		keys []GeoKey
	}{
		{"poles and antimeridian", []GeoKey{
			{Lat: 90, Lon: 180, T: 0},
			{Lat: -90, Lon: -180, T: 1},
			{Lat: 90, Lon: -180, T: math.MaxUint32},
		}},
		{"one quantum below the boundary", []GeoKey{
			{Lat: 90 - 1e-7, Lon: 180 - 1e-7, T: 10},
			{Lat: -90 + 1e-7, Lon: -180 + 1e-7, T: 20},
		}},
		{"sub-quantum values rounding to the boundary", []GeoKey{
			{Lat: 89.99999996, Lon: 179.99999996, T: 1}, // rounds to 90/180
			{Lat: -89.99999996, Lon: -179.99999996, T: 2},
		}},
		{"negative deltas", []GeoKey{
			{Lat: 10, Lon: 20, T: 1000},
			{Lat: 9.9999999, Lon: 19.9999999, T: 1001},
			{Lat: -10, Lon: -20, T: 1002},
		}},
		{"duplicate timestamps", []GeoKey{
			{Lat: 1, Lon: 2, T: 7},
			{Lat: 1.0000001, Lon: 2.0000001, T: 7},
			{Lat: 1.0000002, Lon: 2.0000002, T: 7},
		}},
		{"decreasing timestamps", []GeoKey{
			{Lat: 0, Lon: 0, T: 100},
			{Lat: 0, Lon: 0, T: 50},
			{Lat: 0, Lon: 0, T: 0},
		}},
		{"single key", []GeoKey{{Lat: -45.1234567, Lon: 170.7654321, T: 42}}},
		{"empty", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := DeltaEncode(tc.keys)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DeltaDecode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(tc.keys) {
				t.Fatalf("length %d → %d", len(tc.keys), len(dec))
			}
			for i, k := range tc.keys {
				want := GeoKey{
					Lat: math.Round(k.Lat*1e7) / 1e7,
					Lon: math.Round(k.Lon*1e7) / 1e7,
					T:   k.T,
				}
				if dec[i] != want {
					t.Fatalf("key %d: got %+v, want quantized %+v (original %+v)", i, dec[i], want, k)
				}
				// The quantization error is at most half a quantum.
				if d := math.Abs(dec[i].Lat - k.Lat); d > 0.5e-7 {
					t.Fatalf("key %d: lat quantization error %g", i, d)
				}
				if d := math.Abs(dec[i].Lon - k.Lon); d > 0.5e-7 {
					t.Fatalf("key %d: lon quantization error %g", i, d)
				}
			}
			// Encoding the quantized keys is a fixed point.
			enc2, err := DeltaEncode(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatal("encode(decode(encode(keys))) differs from encode(keys)")
			}
		})
	}

	// Out-of-range and non-finite coordinates must be rejected, not
	// silently wrapped.
	for _, bad := range []GeoKey{
		{Lat: 90 + 1e-6, Lon: 0},
		{Lat: 0, Lon: -180 - 1e-6},
		{Lat: math.NaN(), Lon: 0},
		{Lat: 0, Lon: math.Inf(1)},
	} {
		if _, err := DeltaEncode([]GeoKey{bad}); err == nil {
			t.Errorf("DeltaEncode accepted out-of-range key %+v", bad)
		}
	}
}

// servable is Enters with no window: whether a read serves block.
func servable(block []byte) bool {
	_, err := Enters(block, nil)
	return err == nil
}

// TestEntersNilMatchesDecode pins what a read relies on: Enters with no
// window accepts exactly the payloads DeltaDecode accepts — every key on
// the globe, the ones a read serves — over valid encodes, every truncation
// of one, and a sweep of single-byte corruptions.
func TestEntersNilMatchesDecode(t *testing.T) {
	check := func(b []byte) {
		t.Helper()
		keys, err := DeltaDecode(b)
		for _, k := range keys {
			if !InRange(k.Lat, k.Lon) {
				t.Fatalf("DeltaDecode materialized off-globe key %+v from %x", k, b)
			}
		}
		if got := servable(b); got != (err == nil) {
			t.Fatalf("Enters(nil)=%v but DeltaDecode err=%v, keys %v for %x", got, err, keys, b)
		}
	}
	keys := []GeoKey{
		{Lat: 1.25, Lon: -2.5, T: 100},
		{Lat: 1.2500001, Lon: -2.4999999, T: 160},
		{Lat: 1.26, Lon: -2.51, T: 160},
		{Lat: -89.9999999, Lon: 179.9999999, T: 4294967295},
	}
	valid, err := DeltaEncode(keys)
	if err != nil {
		t.Fatal(err)
	}
	check(valid)
	for cut := 0; cut <= len(valid); cut++ {
		check(valid[:cut])
	}
	for i := range valid {
		for _, x := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), valid...)
			mut[i] ^= x
			check(mut)
		}
	}
	// Negative-time delta underflow and implausible counts.
	check([]byte{0x02, 0x02, 0x02, 0x05, 0x02, 0x02, 0x0b}) // t1=5, dt=-6 → t<0
	check([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})             // count ≫ len
	check(nil)
}

// refDeltaEncode is DeltaEncode as it stood before Trail: the reference
// the one encoder is held to, byte for byte.
func refDeltaEncode(keys []GeoKey) ([]byte, error) {
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

// refBounds is what the segment log used to compute from a record's keys
// at append time (timeBounds, keysBBox): min and max per axis after
// quantizing each coordinate.
func refBounds(keys []GeoKey) Bounds {
	b := Bounds{MinLat: math.MaxInt32, MinLon: math.MaxInt32, MaxLat: math.MinInt32, MaxLon: math.MinInt32, T0: math.MaxUint32}
	for _, k := range keys {
		lat, lon := int32(math.Round(k.Lat*1e7)), int32(math.Round(k.Lon*1e7))
		b.MinLat, b.MaxLat = min(b.MinLat, lat), max(b.MaxLat, lat)
		b.MinLon, b.MaxLon = min(b.MinLon, lon), max(b.MaxLon, lon)
		b.T0, b.T1 = min(b.T0, k.T), max(b.T1, k.T)
	}
	return b
}

// checkTrailMatchesDeltaEncode holds Trail, Cursor and AppendDelta to the
// references for one key sequence; cut picks where the trail is chunked.
func checkTrailMatchesDeltaEncode(t *testing.T, keys []GeoKey, cut int) {
	t.Helper()
	want, werr := refDeltaEncode(keys)
	got, gerr := DeltaEncode(keys)
	if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("DeltaEncode = %x, %v; reference %x, %v", got, gerr, want, werr)
	}
	prefix := []byte("prefix")
	if app, err := AppendDelta(append([]byte(nil), prefix...), keys); (err == nil) != (werr == nil) ||
		err == nil && !bytes.Equal(app, append(prefix, want...)) {
		t.Fatalf("AppendDelta behind a prefix = %x, %v; want the prefix then %x", app, err, want)
	}
	var tr Trail
	if err := tr.Add(keys...); (err == nil) != (werr == nil) {
		t.Fatalf("Trail.Add = %v, reference %v", err, werr)
	}
	if werr != nil {
		return
	}
	if block := tr.AppendBlock(nil); !bytes.Equal(block, want) || tr.Len() != len(keys) || tr.Size() != len(want)-uvarintLen(len(keys)) {
		t.Fatalf("trail of %d keys, %d B: block %x, want %x", tr.Len(), tr.Size(), block, want)
	}
	if len(keys) > 0 && tr.Bounds() != refBounds(keys) {
		t.Fatalf("bounds %+v, reference %+v", tr.Bounds(), refBounds(keys))
	}
	dec, err := DeltaDecode(want)
	if err != nil || !servable(want) {
		t.Fatalf("the block does not read back: %v", err)
	}
	if read := tr.Keys(); !reflect.DeepEqual(read, dec) {
		t.Fatalf("cursor over the trail read %v, DeltaDecode %v", read, dec)
	}
	if len(keys) == 0 {
		return
	}
	// Chunking: keys[:cut+1] is flushed and the trail restarts from its
	// last key on the lattice — which must encode as the float did. The
	// flushed chunk, taken by a holder, is not the builder's to touch.
	cut = cut % len(keys)
	var head Trail
	if err := head.Add(keys[:cut+1]...); err != nil {
		t.Fatal(err)
	}
	held := head.Take()
	before := held.AppendBlock(nil)
	head.Restart()
	if err := head.Add(keys[cut+1:]...); err != nil {
		t.Fatal(err)
	}
	wantTail, _ := refDeltaEncode(keys[cut:])
	wantHead, _ := refDeltaEncode(keys[:cut+1])
	if block := head.AppendBlock(nil); !bytes.Equal(block, wantTail) || head.Bounds() != refBounds(keys[cut:]) {
		t.Fatalf("restarted at key %d: block %x bounds %+v, want %x %+v", cut, block, head.Bounds(), wantTail, refBounds(keys[cut:]))
	}
	if after := held.AppendBlock(nil); !bytes.Equal(after, before) || !bytes.Equal(after, wantHead) {
		t.Fatalf("taken chunk changed under the builder: %x → %x, want %x", before, after, wantHead)
	}
	// The same restart in place (the chunk was appended, not parked)
	// reuses the buffer and must produce the same bytes.
	var inPlace Trail
	if err := inPlace.Add(keys[:cut+1]...); err != nil {
		t.Fatal(err)
	}
	inPlace.Restart()
	if err := inPlace.Add(keys[cut+1:]...); err != nil {
		t.Fatal(err)
	}
	if block := inPlace.AppendBlock(nil); !bytes.Equal(block, wantTail) {
		t.Fatalf("restarted in place at key %d: block %x, want %x", cut, block, wantTail)
	}
	checkPagedTrail(t, keys, cut)
}

func uvarintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// TestTrailMatchesDeltaEncode runs the property over the seed
// trajectories, the quantization-boundary cases (1e-7° half steps
// included) and out-of-range keys at every position.
func TestTrailMatchesDeltaEncode(t *testing.T) {
	seqs := fuzzSeedKeys()
	seqs = append(seqs, nil,
		[]GeoKey{{Lat: 89.99999996, Lon: 179.99999996, T: 1}, {Lat: -89.99999996, Lon: -179.99999996, T: 2}},
		[]GeoKey{{Lat: 0.00000005, Lon: -0.00000005, T: 9}, {Lat: 0.00000015, Lon: 0.00000025, T: 3}, {Lat: -0.00000035, Lon: 1e-7, T: 3}},
		[]GeoKey{{Lat: 10, Lon: 20, T: 1000}, {Lat: 9.9999999, Lon: 19.9999999, T: 1001}, {Lat: -10, Lon: -20, T: 0}, {Lat: 90, Lon: -180, T: math.MaxUint32}},
	)
	for _, keys := range seqs {
		for cut := range max(len(keys), 1) {
			checkTrailMatchesDeltaEncode(t, keys, cut)
		}
	}
	for _, bad := range []GeoKey{{Lat: 90 + 1e-6}, {Lon: -180 - 1e-6}, {Lat: math.NaN()}, {Lon: math.Inf(1)}, {Lat: math.Inf(-1)}} {
		for at := 0; at < 3; at++ {
			keys := []GeoKey{{Lat: 1, Lon: 2, T: 3}, {Lat: 1.5, Lon: 2.5, T: 4}}
			keys = append(keys[:at:at], append([]GeoKey{bad}, keys[at:]...)...)
			checkTrailMatchesDeltaEncode(t, keys, 0)
		}
	}
}

// TestPlaneRoundTripKeepsBytes is the lattice property that compaction's
// ageing and the server's wire → plane → trail path rely on: for a key on
// the wire's lattice, Trail.Add(PlaneKey(PlanePoint(k))) writes the bytes
// Trail.Add(k) writes. It runs over every combination of the boundary
// values — ±90°, ±180°, 0, ±1e-7° and the steps inside the edges, T 0, 1
// and MaxUint32 — and over random lattice keys, each alone and all as one
// trail (so the deltas between them too).
func TestPlaneRoundTripKeepsBytes(t *testing.T) {
	var keys []GeoKey
	for _, lat := range []int64{-90e7, -90e7 + 1, -1, 0, 1, 90e7 - 1, 90e7} {
		for _, lon := range []int64{-180e7, -180e7 + 1, -1, 0, 1, 180e7 - 1, 180e7} {
			for _, ts := range []uint32{0, 1, math.MaxUint32} {
				keys = append(keys, latticeKey(lat, lon, ts))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 100_000 {
		keys = append(keys, latticeKey(rng.Int63n(180e7+1)-90e7, rng.Int63n(360e7+1)-180e7, rng.Uint32()))
	}
	var direct, round Trail
	for _, k := range keys {
		var a, b Trail
		if err := a.Add(k); err != nil {
			t.Fatalf("Add(%+v): %v", k, err)
		}
		back := PlaneKey(PlanePoint(k))
		if err := b.Add(back); err != nil || !bytes.Equal(a.AppendBlock(nil), b.AppendBlock(nil)) {
			t.Fatalf("key %+v comes back from the plane as %+v: block %x, want %x (%v)", k, back, b.AppendBlock(nil), a.AppendBlock(nil), err)
		}
		if err := errors.Join(direct.Add(k), round.Add(back)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(direct.AppendBlock(nil), round.AppendBlock(nil)) || direct.Bounds() != round.Bounds() {
		t.Fatalf("a trail of %d keys differs after the plane round trip", len(keys))
	}
}

// FuzzTrailMatchesDeltaEncode: for any key sequence the fuzzer can
// reach — FuzzDeltaDecode's corpus read back as keys, each then nudged
// by up to ± one lattice step in 1/128 steps so half-step ties occur —
// the builder's bytes are DeltaEncode's of the parent, its bounds are
// the parent's timeBounds/keysBBox, and the cursor reads what
// DeltaDecode reads; built in pool pages, it reads as built on the heap
// (checkPagedTrail).
func FuzzTrailMatchesDeltaEncode(f *testing.F) {
	for _, keys := range fuzzSeedKeys() {
		enc, err := DeltaEncode(keys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, []byte{0}, uint(0))
		f.Add(enc, []byte{64, 192, 128, 1, 255}, uint(1))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, []byte{7}, uint(3))
	f.Fuzz(func(t *testing.T, block, nudge []byte, cut uint) {
		keys, err := DeltaDecode(block)
		if err != nil || len(keys) > 4096 {
			return
		}
		for i := range keys {
			if len(nudge) > 0 {
				keys[i].Lat += (float64(nudge[(2*i)%len(nudge)]) - 128) / 128 * 1e-7
				keys[i].Lon += (float64(nudge[(2*i+1)%len(nudge)]) - 128) / 128 * 1e-7
			}
		}
		checkTrailMatchesDeltaEncode(t, keys, int(cut%(1<<20)))
	})
}

// checkTrailJoin holds OpenTrail and Join to the references for one
// in-range key sequence chunked at cut: a stored block reopens as the
// trail that built it, the two chunks — which share keys[cut] — join into
// DeltaEncode of all the keys, byte for byte, without touching the blocks
// they were opened from, and a chunk that does not start at the other's
// last key is refused.
func checkTrailJoin(t *testing.T, keys []GeoKey, cut int) {
	t.Helper()
	if len(keys) == 0 {
		var a, b Trail
		if a.Join(&b) {
			t.Fatal("joined two empty trails")
		}
		return
	}
	cut %= len(keys)
	want, err := refDeltaEncode(keys)
	if err != nil {
		t.Fatal(err)
	}
	var built Trail
	if err := built.Add(keys...); err != nil {
		t.Fatal(err)
	}
	// A block with bytes past its last key opens as if they were not there.
	whole, err := OpenTrail(append(append([]byte(nil), want...), 0xde, 0xad))
	if err != nil || !bytes.Equal(whole.AppendBlock(nil), want) || whole.Len() != built.Len() || whole.Size() != built.Size() || whole.Bounds() != built.Bounds() {
		t.Fatalf("OpenTrail = %d keys, %d B, %+v, %v; built %d keys, %d B, %+v", whole.Len(), whole.Size(), whole.Bounds(), err, built.Len(), built.Size(), built.Bounds())
	}
	// ... and goes on like the trail that built it.
	next := GeoKey{Lat: -keys[0].Lat / 2, Lon: keys[0].Lon / 3, T: keys[0].T / 2}
	if err1, err2 := whole.Add(next), built.Add(next); err1 != nil || err2 != nil || !bytes.Equal(whole.AppendBlock(nil), built.AppendBlock(nil)) {
		t.Fatalf("an opened trail and the built one diverge at the next key: %v %v", err1, err2)
	}

	headBlock, _ := refDeltaEncode(keys[:cut+1])
	tailBlock, _ := refDeltaEncode(keys[cut:])
	headWas, tailWas := append([]byte(nil), headBlock...), append([]byte(nil), tailBlock...)
	head, err1 := OpenTrail(headBlock)
	tail, err2 := OpenTrail(tailBlock)
	if err1 != nil || err2 != nil {
		t.Fatalf("chunks do not open: %v, %v", err1, err2)
	}
	if !head.Join(&tail) {
		t.Fatalf("chunks sharing key %d refused to join", cut)
	}
	if got := head.AppendBlock(nil); !bytes.Equal(got, want) || head.Len() != len(keys) || head.Bounds() != refBounds(keys) {
		t.Fatalf("joined at key %d: %d keys %+v block %x, want %d keys %+v block %x", cut, head.Len(), head.Bounds(), got, len(keys), refBounds(keys), want)
	}
	if !bytes.Equal(headBlock, headWas) || !bytes.Equal(tailBlock, tailWas) || !bytes.Equal(tail.AppendBlock(nil), tailWas) {
		t.Fatal("Join wrote into a block it was opened from")
	}
	// Each chunk is a contiguous run of the whole, the whole of a chunk only
	// when the chunk is all of it, and nothing contains a run it lacks.
	whole, _ = OpenTrail(want)
	if !whole.Contains(&tail) || !whole.Contains(&whole) || whole.Contains(&Trail{}) {
		t.Fatalf("the trail does not contain its own tail from key %d (or contains nothing)", cut)
	}
	if tail.Contains(&whole) != (cut == 0) {
		t.Fatalf("tail from key %d contains the whole trail: %v", cut, cut != 0)
	}
	var other Trail
	if err := other.Add(keys[cut], next); err != nil {
		t.Fatal(err)
	}
	// The run (keys[cut], next) is the trail's exactly where some key and the
	// one after it sit on those lattice points — not only at cut: a trail
	// that repeats keys[cut] earlier may have it there.
	has, at, then := false, refBounds(keys[cut:cut+1]), refBounds([]GeoKey{next})
	for i := 0; i+1 < len(keys); i++ {
		has = has || refBounds(keys[i:i+1]) == at && refBounds(keys[i+1:i+2]) == then
	}
	if whole.Contains(&other) != has {
		t.Fatalf("the trail containing the run (key %d, a next key) = %v, has it %v", cut, !has, has)
	}
	// A joined trail is a trail: it opens, and joins on.
	if again, err := OpenTrail(head.AppendBlock(nil)); err != nil || again.Len() != len(keys) {
		t.Fatalf("joined block reopens as %d keys, %v", again.Len(), err)
	}

	// Refusal: the second chunk starting one key late shares nothing,
	// unless that key sits on the same lattice point.
	if cut+1 < len(keys) {
		lateBlock, _ := refDeltaEncode(keys[cut+1:])
		late, _ := OpenTrail(lateBlock)
		head, _ = OpenTrail(headBlock)
		a, b := refBounds(keys[cut:cut+1]), refBounds(keys[cut+1:cut+2])
		if joined := head.Join(&late); joined != (a == b) {
			t.Fatalf("Join across a gap = %v (boundary keys %+v, %+v)", joined, a, b)
		} else if !joined && (!bytes.Equal(head.AppendBlock(nil), headWas) || head.Len() != cut+1) {
			t.Fatal("a refused Join changed the trail")
		}
	}
	var empty Trail
	if head.Join(&empty) || empty.Join(&head) {
		t.Fatal("joined with an empty trail")
	}
	checkPagedJoin(t, keys, cut, next)
}

// TestTrailJoin runs the join property over the seed trajectories and
// the lattice-boundary cases, chunked at every key, and Contains over a
// haystack joined from records.
func TestTrailJoin(t *testing.T) {
	seqs := append(fuzzSeedKeys(), nil,
		[]GeoKey{{Lat: 90, Lon: -180, T: math.MaxUint32}, {Lat: -90, Lon: 180, T: 0}, {Lat: -90, Lon: 180, T: 0}, {Lat: 0.00000005, Lon: -0.00000005, T: 9}},
		[]GeoKey{{Lat: 1, Lon: 2, T: 3}},
	)
	for _, keys := range seqs {
		for cut := range max(len(keys), 1) {
			checkTrailJoin(t, keys, cut)
		}
	}
	// A haystack joined from three records is three pages, so a run sought
	// in it crosses their breaks: every run of its keys is in it, as in the
	// one-block trail of them, and none with a key moved by a lattice step.
	walk := make([]GeoKey, 40)
	for i := range walk {
		walk[i] = GeoKey{Lat: -37.8 + float64(i%3)*1e-4, Lon: 144.9 + float64(i)*1e-3, T: uint32(1700000000 + 10*i)}
	}
	var hay Trail
	for _, r := range [][2]int{{0, 10}, {10, 25}, {25, 39}} {
		blk, _ := refDeltaEncode(walk[r[0] : r[1]+1])
		rec, err := OpenTrail(blk)
		if err != nil || hay.Len() > 0 && !hay.Join(&rec) {
			t.Fatalf("record %v does not join: %v", r, err)
		}
		if hay.Len() == 0 {
			hay = rec
		}
	}
	block, _ := DeltaEncode(walk)
	flat, _ := OpenTrail(block)
	if hay.Pages() != 3 || !bytes.Equal(hay.AppendBlock(nil), block) {
		t.Fatalf("the haystack is %d pages: %x, want %x", hay.Pages(), hay.AppendBlock(nil), block)
	}
	for from := 0; from < len(walk); from += 3 {
		for to := from; to < len(walk); to += 4 {
			var run, moved Trail
			off := append([]GeoKey(nil), walk[from:to+1]...)
			off[len(off)/2].Lat += 1e-7
			if err := errors.Join(run.Add(walk[from:to+1]...), moved.Add(off...)); err != nil {
				t.Fatal(err)
			}
			if !hay.Contains(&run) || !flat.Contains(&run) || hay.Contains(&moved) || flat.Contains(&moved) {
				t.Fatalf("keys %d..%d: in the haystack %v, moved %v; in one block %v, moved %v",
					from, to, hay.Contains(&run), hay.Contains(&moved), flat.Contains(&run), flat.Contains(&moved))
			}
		}
	}
	// What Add refuses, every reader refuses: a block whose deltas walk off
	// the globe parses but is no trail.
	off := binary.AppendVarint(binary.AppendVarint([]byte{2}, 89e7), 0)
	off = binary.AppendVarint(binary.AppendVarint(binary.AppendUvarint(off, 5), 2e7), 0) // lat 89° + 2°
	off = binary.AppendVarint(off, 1)
	c, err := BlockCursor(off)
	if err == nil {
		_, err = c.decode(nil, c.left, false, nil)
	}
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	_, derr := DeltaDecode(off)
	if _, err := OpenTrail(off); !errors.Is(err, ErrRange) || !errors.Is(derr, ErrRange) || servable(off) {
		t.Fatalf("OpenTrail(off-globe block) = %v, DeltaDecode %v, Enters(nil) %v; want ErrRange, ErrRange, false", err, derr, servable(off))
	}
}

// TestEntersKeepsNothing: the walk a query runs over every candidate block
// allocates nothing — no key is materialized to be filtered.
func TestEntersKeepsNothing(t *testing.T) {
	block, err := DeltaEncode(fuzzSeedKeys()[0])
	if err != nil {
		t.Fatal(err)
	}
	w, _ := LatticeWindow(-180, -90, 180, 90, 0, math.MaxUint32)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Enters(block, &w); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Enters allocates %v times a block", n)
	}
}

// FuzzTrailJoin: for any in-range key sequence the fuzzer can reach and
// any chunking of it, the joined chunks are DeltaEncode of the joined
// keys and a non-matching boundary refuses; chunks in pool pages join and
// contain as heap ones do (checkPagedJoin).
func FuzzTrailJoin(f *testing.F) {
	for _, keys := range fuzzSeedKeys() {
		enc, err := DeltaEncode(keys)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, uint(0))
		f.Add(enc, uint(len(keys)/2))
	}
	f.Fuzz(func(t *testing.T, block []byte, cut uint) {
		keys, err := DeltaDecode(block)
		if err != nil || len(keys) > 4096 || !servable(block) {
			return
		}
		checkTrailJoin(t, keys, int(cut%(1<<20)))
	})
}
