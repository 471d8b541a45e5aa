package trajstore

import (
	"bytes"
	"reflect"
	"testing"
)

// acrossPages repeats keys until a pooled trail of them spans at least
// three pages, so that the shortest fuzz input has keys on both sides of
// page breaks.
func acrossPages(keys []GeoKey) []GeoKey {
	var ext []GeoKey
	for flat := (Trail{}); flat.Size() < 3*pageSize; {
		ext = append(ext, keys...)
		_ = flat.Add(keys...) // in range: the caller's keys encoded
	}
	return ext
}

// pooled builds keys in p's pages.
func pooled(t *testing.T, p *PagePool, keys []GeoKey) Trail {
	t.Helper()
	tr := p.NewTrail()
	if err := tr.Add(keys...); err != nil {
		t.Fatal(err)
	}
	return tr
}

// sameTrail fails unless paged reads as flat does: block, keys, counts, bounds.
func sameTrail(t *testing.T, what string, paged, flat *Trail) {
	t.Helper()
	if pb, fb := paged.AppendBlock([]byte("x")), flat.AppendBlock([]byte("x")); !bytes.Equal(pb, fb) ||
		paged.Len() != flat.Len() || paged.Size() != flat.Size() || paged.Bounds() != flat.Bounds() ||
		!reflect.DeepEqual(paged.Keys(), flat.Keys()) {
		t.Fatalf("%s: paged trail of %d keys, %d B in %d pages: %x; on the heap %d keys, %d B: %x",
			what, paged.Len(), paged.Size(), paged.Pages(), pb, flat.Len(), flat.Size(), fb)
	}
}

// checkPagedTrail holds a trail built in pool pages — keys repeated over
// at least three of them — to the heap trail of the same keys, and the
// pool to its count: a trail's pages are out until it gives them back,
// Restart keeps only the first, Take moves them, Release returns them, and
// with none out Unmap leaves nothing mapped.
func checkPagedTrail(t *testing.T, keys []GeoKey, cut int) {
	t.Helper()
	ext := acrossPages(keys)
	var pool PagePool
	paged, flat := pooled(t, &pool, ext), Trail{}
	if err := flat.Add(ext...); err != nil {
		t.Fatal(err)
	}
	sameTrail(t, "built", &paged, &flat)
	if paged.Pages() < 3 || pool.Out() != paged.Pages() || pool.Mapped() != slabSize {
		t.Fatalf("%d B of keys in %d pages, %d out, %d B mapped", paged.Size(), paged.Pages(), pool.Out(), pool.Mapped())
	}
	cut %= len(ext)
	head := pooled(t, &pool, ext[:cut+1])
	held := head.Take()
	head.Restart()
	if err := head.Add(ext[cut+1:]...); err != nil {
		t.Fatal(err)
	}
	wantHead, _ := refDeltaEncode(ext[:cut+1])
	wantTail, _ := refDeltaEncode(ext[cut:])
	if !bytes.Equal(held.AppendBlock(nil), wantHead) || !bytes.Equal(head.AppendBlock(nil), wantTail) {
		t.Fatalf("paged chunks at key %d: %x then %x, want %x then %x", cut, held.AppendBlock(nil), head.AppendBlock(nil), wantHead, wantTail)
	}
	flat.Restart()
	paged.Restart()
	sameTrail(t, "restarted", &paged, &flat)
	if paged.Pages() != 1 || pool.Out() != 1+held.Pages()+head.Pages() {
		t.Fatalf("restarted in %d pages; %d out for trails holding %d", paged.Pages(), pool.Out(), 1+held.Pages()+head.Pages())
	}
	if pool.Unmap(); pool.Mapped() == 0 {
		t.Fatal("Unmap took the slabs from under pages still out")
	}
	for _, tr := range []*Trail{&paged, &held, &head} {
		tr.Release()
	}
	if pool.Unmap(); pool.Out() != 0 || pool.Mapped() != 0 {
		t.Fatalf("all released: %d pages out, %d B mapped after Unmap", pool.Out(), pool.Mapped())
	}
	if err := paged.Add(ext[0]); err != nil || paged.Pages() != 1 || pool.Out() != 1 || pool.Mapped() != slabSize {
		t.Fatalf("a released trail goes on in %d pages, %d out, %d B mapped: %v", paged.Pages(), pool.Out(), pool.Mapped(), err)
	}
	paged.Release()
	pool.Unmap()
}

// checkPagedJoin holds Join and Contains on trails in pool pages to the
// same on the heap, for keys repeated over several pages and chunked once
// with a long head, once with a long tail: the joined trail reads as the
// heap join of the opened blocks does, the tail's pages become the head's,
// each trail contains what its heap twin contains, and a chunk from
// another pool or from the heap does not join.
func checkPagedJoin(t *testing.T, keys []GeoKey, cut int, next GeoKey) {
	t.Helper()
	ext := acrossPages(keys)
	want, _ := refDeltaEncode(ext)
	for _, c := range []int{cut % len(ext), len(ext) - 1 - cut%len(ext)} {
		var pool PagePool
		head, tail := pooled(t, &pool, ext[:c+1]), pooled(t, &pool, ext[c:])
		hb, _ := refDeltaEncode(ext[:c+1])
		tb, _ := refDeltaEncode(ext[c:])
		flat, _ := OpenTrail(hb)
		flatTail, _ := OpenTrail(tb)
		var other PagePool
		stranger := pooled(t, &other, ext[c:])
		if head.Join(&stranger) || head.Join(&flatTail) || flat.Join(&tail) {
			t.Fatalf("chunks at key %d joined across pools", c)
		}
		if !head.Join(&tail) || !flat.Join(&flatTail) {
			t.Fatalf("paged chunks sharing key %d refused to join", c)
		}
		sameTrail(t, "joined", &head, &flat)
		if got := head.AppendBlock(nil); !bytes.Equal(got, want) || tail.Len() != 0 || tail.Pages() != 0 || pool.Out() != head.Pages() {
			t.Fatalf("joined at key %d: %x, want %x; the tail keeps %d pages, %d out for the head's %d", c, got, want, tail.Pages(), pool.Out(), head.Pages())
		}
		for _, run := range [][]GeoKey{ext, ext[c:], ext[:c+1], ext[c:min(c+3, len(ext))], {ext[c], next}, {next, ext[c]}} {
			needle := pooled(t, &pool, run)
			var flatNeedle Trail
			if err := flatNeedle.Add(run...); err != nil {
				t.Fatal(err)
			}
			if got, want := head.Contains(&needle), flat.Contains(&flatNeedle); got != want || needle.Contains(&head) != flatNeedle.Contains(&flat) {
				t.Fatalf("a paged trail of %d keys containing %d of them from key %d: %v, on the heap %v", len(ext), len(run), c, got, want)
			}
			needle.Release()
		}
		if !head.Contains(&stranger) {
			t.Fatalf("the joined trail does not contain its own tail from key %d", c)
		}
		if err1, err2 := head.Add(next), flat.Add(next); err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		sameTrail(t, "joined, then grown", &head, &flat)
		head.Release()
		stranger.Release()
		other.Unmap()
		if pool.Unmap(); pool.Out() != 0 || pool.Mapped() != 0 {
			t.Fatalf("all released: %d pages out, %d B mapped", pool.Out(), pool.Mapped())
		}
	}
}
