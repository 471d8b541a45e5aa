// Package cache provides a byte-budgeted LRU used by the read side of
// the store: the segment log caches verified records in one, under keys
// whose bytes never change, so it needs no invalidation (see
// trajstore/segmentlog/cache.go).
//
// A single mutex, an intrusive recency list, a byte budget measured by
// a caller-supplied size function (an entry count budget is the
// degenerate size ≡ 1), and counters cheap enough to read on every
// scrape.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters. Hits, Misses
// and Evictions are cumulative since New; Entries and Bytes are current
// occupancy against Capacity.
type Stats struct {
	Entries   int
	Bytes     int64
	Capacity  int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// Cache is a thread-safe LRU bounded by a byte budget rather than an
// entry count: Put charges each value the size the constructor's size
// function reports, and evicts from the cold end until the budget
// holds. A nil *Cache is a valid no-op cache (Get always misses, Put
// does nothing, Stats is zero), so callers can leave caching
// unconfigured without branching.
type Cache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	size  func(K, V) int64
	ll    *list.List // front = most recent; elements hold *entry[K, V]
	idx   map[K]*list.Element

	hits, misses, evictions uint64
}

// New builds a cache with the given byte budget. size reports the
// charge for one entry and is called once per Put; it must be
// positive, and a single entry larger than the whole budget is
// rejected by Put rather than evicting everything else. A maxBytes
// ≤ 0 returns nil — the no-op cache.
func New[K comparable, V any](maxBytes int64, size func(K, V) int64) *Cache[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache[K, V]{
		max:  maxBytes,
		size: size,
		ll:   list.New(),
		idx:  make(map[K]*list.Element),
	}
}

// Get returns the cached value and whether it was present, promoting
// a hit to most-recently-used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or replaces the value for key, evicting cold entries
// until the byte budget holds. A value whose size exceeds the whole
// budget is not cached (and does not disturb resident entries).
func (c *Cache[K, V]) Put(key K, val V) {
	if c == nil {
		return
	}
	sz := c.size(key, val)
	if sz <= 0 {
		sz = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.max {
		return
	}
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += sz - e.size
		e.val, e.size = val, sz
		c.ll.MoveToFront(el)
	} else {
		c.idx[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: sz})
		c.bytes += sz
	}
	for c.bytes > c.max {
		c.removeLocked(c.ll.Back())
	}
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.idx, e.key)
	c.bytes -= e.size
	c.evictions++
}

// Stats snapshots the counters. Safe on a nil cache (all zero).
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Capacity:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
