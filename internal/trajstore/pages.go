package trajstore

import (
	"fmt"
	"sync/atomic"
	"syscall"
)

// A pooled trail opens a page when its last has fewer than maxKeyBytes
// free, the most one key's three varints take (≤ 33 bits zig-zagged, 5 B
// each), so no key spans two.
const pageSize, slabSize, maxKeyBytes = 512, 256 << 10, 15

// PagePool is the page supply of one goroutine's trails, carved from slabs
// mapped outside the Go heap: the GC neither scans nor counts them, so a
// buffered key costs its bytes once. Only that goroutine may touch the pool
// and its trails (Mapped aside), and a page leaves it only as a copy
// (Trail.AppendBlock, Keys): a page used after its return serves another
// trail's bytes silently — the race detector does not watch mapped memory.
type PagePool struct {
	slabs, free [][]byte // free: the pages given back
	fresh       []byte   // the newest slab's pages not handed out yet
	out         int      // pages handed out and not given back
	mapped      atomic.Int64
}

// NewTrail returns an empty trail whose pages come from p.
func (p *PagePool) NewTrail() Trail { return Trail{pool: p} }

// Out counts the pages handed out and not given back, Mapped the slab bytes.
func (p *PagePool) Out() int      { return p.out }
func (p *PagePool) Mapped() int64 { return p.mapped.Load() }

// get hands out an empty page whose capacity ends where the page does.
func (p *PagePool) get() (pg []byte) {
	p.out++
	if n := len(p.free); n > 0 {
		pg, p.free = p.free[n-1], p.free[:n-1]
		return pg
	}
	if len(p.fresh) == 0 {
		slab, err := syscall.Mmap(-1, 0, slabSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil { // out of memory, where the heap's allocator dies too
			panic(fmt.Sprintf("trajstore: map a trail page slab: %v", err))
		}
		p.slabs, p.fresh = append(p.slabs, slab), slab
		p.mapped.Add(slabSize)
	}
	pg, p.fresh = p.fresh[:0:pageSize], p.fresh[pageSize:]
	return pg
}

// put takes a page back: not a heap trail's (p nil), nor no page (cap 0).
func (p *PagePool) put(pg []byte) {
	if p != nil && cap(pg) > 0 {
		p.out--
		p.free = append(p.free, pg[:0])
	}
}

// Unmap gives every slab back to the OS if no page is out; a page used
// after it faults. A shard calls it after a flush, an eviction sweep and
// Close, never at one trail's release: a chunking session would map and
// unmap a slab a chunk.
func (p *PagePool) Unmap() {
	if p.out != 0 {
		return
	}
	for _, slab := range p.slabs {
		if err := syscall.Munmap(slab); err != nil { // get mapped it
			panic(fmt.Sprintf("trajstore: unmap a trail page slab: %v", err))
		}
	}
	p.slabs, p.fresh, p.free = nil, nil, nil
	p.mapped.Store(0)
}
