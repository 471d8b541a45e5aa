package core

import (
	"math"
	"testing"
)

// TestDeviationWalk pins the one walk's definition. The first two cases are
// the blind spots every hand copy of it shared: a fix sharing a key's
// second was skipped (and the wire carries whole seconds), and the walk
// stopped at the last key.
func TestDeviationWalk(t *testing.T) {
	pt := func(x, y, t float64) Point { return Point{X: x, Y: y, T: t} }
	a, c := pt(0, 0, 10), pt(10, 0, 11)
	track := []Point{pt(0, 0, 0), pt(50, 0, 5), pt(100, 0, 10), pt(400, 0, 11), pt(700, 0, 12), pt(1000, 0, 13)}
	for _, tc := range []struct {
		name       string
		orig, keys []Point
		dist       func(p, s, e Point) float64
		want       float64
	}{
		{"a fix sharing a key's second", []Point{a, pt(0, 100, 10), c}, []Point{a, c}, MetricLine.Dist, 100},
		{"fixes past the last key", track, track[:3:3], MetricLine.Dist, 900},
		{"fixes ahead of the first key", track, track[3:], MetricSegment.Dist, 400},
		{"one key", track[:3], track[1:2], MetricLine.Dist, 50},
		{"no key", track, nil, MetricLine.Dist, math.Inf(1)},
		{"empty track", nil, track, MetricLine.Dist, 0},
		{"nothing at all", nil, nil, MetricLine.Dist, 0},
		{"keys == orig", track, track, MetricLine.Dist, 0},
		{"keys == orig, synchronised", track, track, SyncDist, 0},
		// A fix sharing an inner key's second is held to the nearer of the
		// two segments that key ends: time cannot say which side it was on.
		{"a fix sharing an inner key's second", []Point{pt(0, 0, 0), pt(10, 0, 5), pt(10, 3, 5), pt(10, 10, 9)},
			[]Point{pt(0, 0, 0), pt(10, 0, 5), pt(10, 10, 9)}, MetricLine.Dist, 0},
		// On the path but 3 s early: nothing to the line, 30 m to where
		// the segment is at that time.
		{"early on the path, line", []Point{pt(0, 0, 0), pt(50, 0, 2), pt(100, 0, 10)}, []Point{pt(0, 0, 0), pt(100, 0, 10)}, MetricLine.Dist, 0},
		{"early on the path, synchronised", []Point{pt(0, 0, 0), pt(50, 0, 2), pt(100, 0, 10)}, []Point{pt(0, 0, 0), pt(100, 0, 10)}, SyncDist, 30},
	} {
		if got := Deviation(tc.orig, tc.keys, tc.dist); !(got == tc.want || almostEq(got, tc.want, 1e-9)) {
			t.Errorf("%s: Deviation = %v, want %v", tc.name, got, tc.want)
		}
	}
}
