package trajstore

import (
	"errors"
	"testing"

	"github.com/trajcomp/bqs/internal/cache"
)

// recPersister records calls.
type recPersister struct {
	appends, syncs, closes int
	err                    error
}

func (p *recPersister) Append(string, []GeoKey) error { p.appends++; return p.err }
func (p *recPersister) Sync() error                   { p.syncs++; return p.err }
func (p *recPersister) Close() error                  { p.closes++; return p.err }

// TestAppendOnlyBackend: the adapter forwards Append/Sync/Close — errors
// included — to the one persister it wraps, exposes it as its single
// shard, and answers every other Backend method with "nothing there".
// Without a persister the three forwarded methods are no-ops too.
func TestAppendOnlyBackend(t *testing.T) {
	none := AppendOnly(nil)
	if err := errors.Join(none.Append("d", []GeoKey{{T: 1}}), none.Sync(), none.CompactNow(), none.Close()); err != nil {
		t.Fatal(err)
	}

	p := &recPersister{}
	b := AppendOnly(p)
	if b.NumShards() != 1 || b.ShardPersister(0) != Persister(p) {
		t.Fatal("the wrapped persister is not the adapter's single shard")
	}
	if err := errors.Join(b.Append("d", []GeoKey{{T: 1}}), b.Sync(), b.Close()); err != nil || p.appends != 1 || p.syncs != 1 || p.closes != 1 {
		t.Fatalf("not forwarded: err=%v %+v", err, p)
	}
	if err := b.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if b.CacheStats() != (cache.Stats{}) || b.ReclaimedBytes() != 0 {
		t.Fatal("append-only backend reports cache or reclaim activity")
	}

	boom := errors.New("boom")
	p.err = boom
	for op, err := range map[string]error{"Append": b.Append("d", []GeoKey{{T: 2}}), "Sync": b.Sync(), "Close": b.Close()} {
		if !errors.Is(err, boom) {
			t.Fatalf("%s error lost: %v", op, err)
		}
	}
}
