// Package stream provides the streaming plumbing around the compressors:
// a common interface for all online algorithms, a registry that builds
// them by name, and CSV trace IO.
//
// The paper's target platform consumes GPS fixes "in a stream fashion";
// this package is the Go-native equivalent of that acquisition loop.
package stream

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/trajcomp/bqs/internal/core"
)

// Compressor is the common streaming interface: every online algorithm in
// this repository (BQS, FBQS, BGD, DR, time-sensitive 3-D wrappers)
// satisfies it directly or through a thin adapter. What a registered one's
// tolerance bounds is Deviation's to say (DESIGN.md, "The contract").
type Compressor interface {
	// Push feeds the next point and returns a finalized key point, if any.
	// A trajectory's first point is its first key point and is returned by
	// the Push that fed it: the engine restarts a flushed session from its
	// last key point on that.
	Push(core.Point) (core.Point, bool)
	// Flush terminates the trajectory and returns the final key point, if
	// one is due.
	Flush() (core.Point, bool)
}

// MultiEmitter adapts compressors that can emit several key points per
// push (e.g. Buffered Douglas-Peucker) to pipeline use.
type MultiEmitter interface {
	Push(core.Point) []core.Point
	Flush() []core.Point
}

// multiAdapter converts a MultiEmitter into a Compressor by queueing
// multi-point emissions. The queue is drained by a moving head index and
// its backing array is reused once empty — re-slicing the front off
// (queue = queue[1:]) would strand the consumed prefix's capacity and
// force a fresh allocation per emission burst.
type multiAdapter struct {
	inner MultiEmitter
	queue []core.Point
	head  int
}

// Adapt wraps a MultiEmitter as a queue-draining Compressor. Each Push
// returns at most one key point; remaining emissions are surfaced by
// subsequent pushes (order is preserved and nothing is lost as long as the
// caller drains with Flush at the end).
func Adapt(m MultiEmitter) Compressor { return &multiAdapter{inner: m} }

// pop surfaces the next queued key point, recycling the buffer when the
// queue empties.
func (a *multiAdapter) pop() (core.Point, bool) {
	if a.head >= len(a.queue) {
		a.queue = a.queue[:0]
		a.head = 0
		return core.Point{}, false
	}
	kp := a.queue[a.head]
	a.head++
	if a.head == len(a.queue) {
		a.queue = a.queue[:0]
		a.head = 0
	}
	return kp, true
}

func (a *multiAdapter) Push(p core.Point) (core.Point, bool) {
	a.queue = append(a.queue, a.inner.Push(p)...)
	return a.pop()
}

// Flush surfaces one queued key point per call (the wrapped flush may
// produce several); call repeatedly — or use FlushAll — until it returns
// false. The wrapped MultiEmitter's Flush is only effectful once, so
// repeated calls are safe.
func (a *multiAdapter) Flush() (core.Point, bool) {
	a.queue = append(a.queue, a.inner.Flush()...)
	return a.pop()
}

// FlushAll drains a Compressor completely: it calls Flush repeatedly until
// no more key points are emitted (at most a bounded number of times) and
// returns them all.
func FlushAll(c Compressor) []core.Point {
	var out []core.Point
	for i := 0; i < 1<<20; i++ {
		kp, ok := c.Flush()
		if !ok {
			return out
		}
		out = append(out, kp)
	}
	return out
}

// Compress is the batch convenience wrapper: it runs the compressor over
// pts and returns all key points including the flush.
func Compress(c Compressor, pts []core.Point) []core.Point {
	out := make([]core.Point, 0, min(len(pts)/8+2, 1024))
	for _, p := range pts {
		if kp, ok := c.Push(p); ok {
			out = append(out, kp)
		}
	}
	out = append(out, FlushAll(c)...)
	return out
}

// ErrBadRecord reports a malformed CSV record.
var ErrBadRecord = errors.New("stream: malformed record (want x,y,t per line)")

// WriteCSV writes points as "x,y,t" lines.
func WriteCSV(w io.Writer, pts []core.Point) error {
	bw := bufio.NewWriter(w)
	for _, p := range pts {
		if _, err := fmt.Fprintf(bw, "%.6f,%.6f,%.3f\n", p.X, p.Y, p.T); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads "x,y,t" lines (blank lines and #-comments skipped).
func ReadCSV(r io.Reader) ([]core.Point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pts []core.Point
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("%w: line %d", ErrBadRecord, lineNo)
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(fields[1]), 64)
		t, err3 := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("%w: line %d", ErrBadRecord, lineNo)
		}
		pts = append(pts, core.Point{X: x, Y: y, T: t})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}
