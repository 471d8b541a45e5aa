package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcomp/bqs/bench/tracefs"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the trace began; Parent indexes the span that caused this one
// (-1 for a root); Req groups the spans of one request (frame, barrier
// or query). Track 0 is the driving goroutine, whose spans nest
// strictly; track 1 holds filesystem calls made by the engine's own
// goroutines during the assembled pass, which overlap the driver and
// therefore have no parent.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Track  int8   `json:"track"`
}

// tracer records spans in memory. begin/end belong to the driving
// goroutine alone; leaf may be called from any goroutine. A nil tracer
// records nothing, which is how the untraced comparison pass runs.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	cur      atomic.Int32 // innermost open driver span, -1 when none
	req      atomic.Int32
	detached bool // leaves go to track 1 with no parent
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: t.cur.Load(), Req: t.req.Load()})
	t.mu.Unlock()
	t.cur.Store(id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	parent := t.spans[id].Parent
	t.mu.Unlock()
	t.cur.Store(parent)
}

// nextReq starts a new request: spans begun from now on carry its id.
func (t *tracer) nextReq() {
	if t != nil {
		t.req.Add(1)
	}
}

// leaf records a completed call as a child of the driver's innermost
// open span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), Parent: t.cur.Load(), Req: t.req.Load()}
	s.End = s.Start + int64(d)
	if t.detached {
		s.Parent, s.Track = -1, 1
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// vfsSpanName maps a tracefs op to its ledger row.
func vfsSpanName(op tracefs.Op) string {
	switch op {
	case tracefs.FileWrite, tracefs.FileWriteAt:
		return "vfs.write"
	case tracefs.FileSync:
		return "vfs.fsync"
	case tracefs.FileReadAt, tracefs.FSReadFile:
		return "vfs.readat"
	case tracefs.FSRename:
		return "vfs.rename"
	case tracefs.FSOpen, tracefs.FSOpenFile:
		return "vfs.open"
	default:
		return "vfs.other"
	}
}

// traceFS returns a counting filesystem whose timed calls land in t as
// vfs.* spans.
func traceFS(t *tracer) *tracefs.FS {
	f := tracefs.New()
	if t != nil {
		f.OnOp = func(op tracefs.Op, start time.Time, d time.Duration) {
			if op != tracefs.FileFd {
				t.leaf(vfsSpanName(op), start, d)
			}
		}
	}
	return f
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Overlapping children (two shards
// fsyncing at once) are counted once; a child reaching outside its
// parent is clipped to it.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[int32(i)]
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range ks {
			lo, end := max(spans[k].Start, hi), min(spans[k].End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time per span name over one track.
func selfByName(spans []span, track int8) map[string]int64 {
	out := make(map[string]int64)
	for i, st := range selfTimes(spans) {
		if spans[i].Track == track {
			out[spans[i].Name] += st
		}
	}
	return out
}

// traceFile is what -trace writes under bench/out.
type traceFile struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Host     map[string]string `json:"host"`
	Passes   map[string][]span `json:"passes"`
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
