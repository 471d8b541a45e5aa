package stream

import (
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
)

func line(n int, spacing float64) []core.Point {
	pts := make([]core.Point, n)
	for i := range pts {
		pts[i] = core.Point{X: float64(i) * spacing, Y: 0, T: float64(i)}
	}
	return pts
}

func TestCompressWithCoreCompressor(t *testing.T) {
	c, err := core.NewCompressor(core.Config{Tolerance: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := Compress(c, line(100, 10))
	if len(keys) != 2 {
		t.Errorf("keys = %d, want 2", len(keys))
	}
}

func TestAdaptBufferedDP(t *testing.T) {
	bdp, err := baseline.NewBufferedDP(5, 8, core.MetricLine)
	if err != nil {
		t.Fatal(err)
	}
	a := Adapt(bdp)
	keys := Compress(a, line(50, 10))
	// Straight line with buffer 8: ≈ ⌈49/7⌉+1 points, all surfaced.
	want := (50-2)/7 + 2
	if len(keys) != want {
		t.Errorf("adapted BDP keys = %d, want %d", len(keys), want)
	}
	// All key points must be original stream points in order.
	for i := 1; i < len(keys); i++ {
		if keys[i].T <= keys[i-1].T {
			t.Fatalf("keys out of order at %d", i)
		}
	}
}

func TestFlushAllIdempotent(t *testing.T) {
	c, _ := core.NewCompressor(core.Config{Tolerance: 5})
	c.Push(core.Point{X: 0, T: 0})
	c.Push(core.Point{X: 100, T: 1})
	out := FlushAll(c)
	if len(out) != 1 {
		t.Fatalf("FlushAll = %v", out)
	}
	if len(FlushAll(c)) != 0 {
		t.Error("second FlushAll emitted points")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	pts := []core.Point{
		{X: 1.5, Y: -2.25, T: 100},
		{X: 0, Y: 0, T: 101.5},
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d points", len(got))
	}
	for i := range pts {
		if dx := got[i].X - pts[i].X; dx > 1e-6 || dx < -1e-6 {
			t.Errorf("point %d: %v vs %v", i, got[i], pts[i])
		}
	}
}

func TestReadCSVCommentsAndErrors(t *testing.T) {
	in := "# header\n\n1,2,3\n  4 , 5 , 6 \n"
	pts, err := ReadCSV(strings.NewReader(in))
	if err != nil || len(pts) != 2 {
		t.Fatalf("pts=%v err=%v", pts, err)
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("short record accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("non-numeric record accepted")
	}
}
