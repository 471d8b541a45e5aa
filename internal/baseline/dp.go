// Package baseline implements the trajectory compression algorithms the
// paper evaluates BQS against: offline Douglas-Peucker (DP), Buffered
// Douglas-Peucker (BDP), Buffered Greedy Deviation (BGD, the generic
// sliding-window algorithm), Dead Reckoning (DR), plus the related-work
// SQUISH-E family and a uniform-sampling strawman for ablations.
//
// All error-bounded algorithms in this package share the deviation
// semantics of the core package: a compressed segment between key points
// must keep every interior original point within the tolerance of the
// segment's path line (or closed segment, under core.MetricSegment).
package baseline

import (
	"errors"
	"math"

	"github.com/trajcomp/bqs/internal/core"
)

// ErrBadTolerance reports a non-positive or non-finite tolerance.
var ErrBadTolerance = errors.New("baseline: tolerance must be a positive finite number of metres")

// ErrBadBuffer reports an unusable buffer size.
var ErrBadBuffer = errors.New("baseline: buffer size must be at least 3 points")

func checkTolerance(d float64) error {
	if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
		return ErrBadTolerance
	}
	return nil
}

// DouglasPeucker compresses pts offline with the classic Douglas-Peucker
// algorithm under the given metric: it keeps the first and last points and
// recursively keeps the point of maximum deviation until every deviation is
// within the tolerance. The result preserves input order and always
// includes both endpoints (single-point inputs are returned as-is).
//
// The implementation uses an explicit stack, so adversarial inputs cannot
// overflow the goroutine stack; worst-case time is O(n²) as in Table I.
func DouglasPeucker(pts []core.Point, tolerance float64, metric core.Metric) ([]core.Point, error) {
	if err := checkTolerance(tolerance); err != nil {
		return nil, err
	}
	n := len(pts)
	if n <= 2 {
		out := make([]core.Point, n)
		copy(out, pts)
		return out, nil
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true

	type span struct{ lo, hi int }
	stack := []span{{0, n - 1}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := pts[s.lo], pts[s.hi]
		maxD, arg := 0.0, -1
		for i := s.lo + 1; i < s.hi; i++ {
			d := metric.Dist(pts[i], a, b)
			if d > maxD {
				maxD, arg = d, i
			}
		}
		if maxD > tolerance {
			keep[arg] = true
			stack = append(stack, span{s.lo, arg}, span{arg, s.hi})
		}
	}

	out := make([]core.Point, 0, 16)
	for i, k := range keep {
		if k {
			out = append(out, pts[i])
		}
	}
	return out, nil
}
