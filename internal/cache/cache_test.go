package cache

import (
	"fmt"
	"sync"
	"testing"
)

// sizeLen charges each string value its length, so byte-budget
// eviction is exercised with readable numbers.
func sizeLen(_ int, v string) int64 { return int64(len(v)) }

func TestGetPutAndCounters(t *testing.T) {
	c := New[int, string](100, sizeLen)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "aaaa")
	if v, ok := c.Get(1); !ok || v != "aaaa" {
		t.Fatalf("got %q, %v; want aaaa, true", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 4 || s.Capacity != 100 {
		t.Fatalf("stats %+v; want 1 hit, 1 miss, 1 entry, 4 bytes, cap 100", s)
	}
}

func TestEvictsColdestUnderByteBudget(t *testing.T) {
	c := New[int, string](10, sizeLen)
	c.Put(1, "aaaa") // 4 bytes
	c.Put(2, "bbbb") // 8 bytes
	c.Get(1)         // promote 1; now 2 is coldest
	c.Put(3, "cccc") // 12 bytes: must evict 2
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted entry still present")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing after eviction of 2", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Bytes != 8 {
		t.Fatalf("stats %+v; want 1 eviction, 8 bytes", s)
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	c := New[int, string](100, sizeLen)
	c.Put(1, "aa")
	c.Put(1, "aaaaaa")
	if s := c.Stats(); s.Entries != 1 || s.Bytes != 6 {
		t.Fatalf("stats %+v; want 1 entry, 6 bytes after replace", s)
	}
	if v, _ := c.Get(1); v != "aaaaaa" {
		t.Fatalf("got %q after replace", v)
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New[int, string](4, sizeLen)
	c.Put(1, "ok")
	c.Put(2, "way too large for the budget")
	if _, ok := c.Get(2); ok {
		t.Fatal("oversized value was cached")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("resident entry evicted by an uncacheable value")
	}
}

func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache[int, string]
	if c2 := New[int, string](0, sizeLen); c2 != nil {
		t.Fatal("New with zero budget should return the nil no-op cache")
	}
	c.Put(1, "x")
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats %+v; want zero", s)
	}
}

// TestConcurrentAccess is a -race smoke test: readers, writers and
// scrapers share the cache, and the byte accounting must still balance
// afterwards.
func TestConcurrentAccess(t *testing.T) {
	c := New[int, string](1<<10, sizeLen)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 64
				switch i % 3 {
				case 0:
					c.Put(k, fmt.Sprintf("value-%d-%d", g, i))
				case 1:
					c.Get(k)
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 || s.Bytes > 1<<10 {
		t.Fatalf("byte accounting out of range after concurrent use: %+v", s)
	}
	if s.Entries < 0 || int64(s.Entries) > s.Bytes {
		t.Fatalf("entry/byte mismatch: %+v", s)
	}
}
