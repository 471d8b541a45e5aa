package trajstore

import (
	"errors"
	"reflect"
	"testing"
)

// recPersister records calls, and keeps every slice it was handed.
type recPersister struct {
	appends, syncs, closes int
	kept                   [][]GeoKey
	err                    error
}

func (p *recPersister) Append(_ string, keys []GeoKey) error {
	p.appends++
	p.kept = append(p.kept, keys)
	return p.err
}
func (p *recPersister) Sync() error  { p.syncs++; return p.err }
func (p *recPersister) Close() error { p.closes++; return p.err }

// TestAppendOnlyBackend: the adapter forwards Append/Sync/Close — errors
// included — to the one persister it wraps and answers every other
// Backend method with "nothing there". It is where a built trail turns
// back into GeoKeys, and every Append the persister sees gets a slice of
// its own: the session reuses its buffer for the next chunk, so a
// recorder that keeps what it was handed (bench/traced.go's, the model
// test's fake) must not see an earlier slice change. Without a persister
// the three forwarded methods are no-ops too.
func TestAppendOnlyBackend(t *testing.T) {
	none := AppendOnly(nil)
	if err := errors.Join(none.Append("d", []GeoKey{{T: 1}}), none.Sync(), none.CompactNow(), none.Close()); err != nil {
		t.Fatal(err)
	}

	p := &recPersister{}
	b := AppendOnly(p)
	if err := errors.Join(b.Append("d", []GeoKey{{T: 1}}), b.Sync(), b.Close()); err != nil || p.appends != 1 || p.syncs != 1 || p.closes != 1 {
		t.Fatalf("not forwarded: err=%v %+v", err, p)
	}
	if err := b.CompactNow(); err != nil {
		t.Fatal(err)
	}

	// One trail, flushed as two chunks through the same buffer.
	var tr Trail
	first := []GeoKey{{Lat: 1, Lon: 2, T: 3}, {Lat: 1.5, Lon: 2.5, T: 4}, {Lat: -1, Lon: -2, T: 9}}
	if err := errors.Join(tr.Add(first...), b.AppendTrail("d", &tr)); err != nil {
		t.Fatal(err)
	}
	tr.Restart()
	second := []GeoKey{first[2], {Lat: 7, Lon: 8, T: 10}}
	if err := errors.Join(tr.Add(second[1]), b.AppendTrail("d", &tr)); err != nil {
		t.Fatal(err)
	}
	got := p.kept[len(p.kept)-2:]
	if !reflect.DeepEqual(got, [][]GeoKey{first, second}) {
		t.Fatalf("persister saw %v, want %v", got, [][]GeoKey{first, second})
	}
	got[1][0] = GeoKey{Lat: 45} // a keeper may even write to its slice
	tr.Restart()
	if err := tr.Add(GeoKey{Lat: -80, Lon: 170, T: 11}, GeoKey{Lat: 80, Lon: -170, T: 12}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], first) || got[1][1] != second[1] || !reflect.DeepEqual(tr.Keys()[0], second[1]) {
		t.Fatalf("slices alias the trail's buffer or each other: %v, trail %v", got, tr.Keys())
	}

	boom := errors.New("boom")
	p.err = boom
	for op, err := range map[string]error{"Append": b.Append("d", []GeoKey{{T: 2}}), "AppendTrail": b.AppendTrail("d", &tr), "Sync": b.Sync(), "Close": b.Close()} {
		if !errors.Is(err, boom) {
			t.Fatalf("%s error lost: %v", op, err)
		}
	}
}
