// Package core implements the Bounded Quadrant System (BQS) online
// trajectory compression algorithm of Liu et al. (ICDE 2015), including the
// exact variant (Algorithm 1), the constant-time/constant-space fast variant
// (FBQS, Section V-E), the data-centric rotation refinement (Section V-D)
// and the 3-D octant generalization (Section V-G).
//
// The algorithm consumes a stream of projected points and emits the key
// points of an error-bounded compressed trajectory: every point of the
// original stream lies within the configured tolerance of the compressed
// segment it falls into. Decisions are made from a per-quadrant convex-hull
// bounding structure (a minimal bounding box plus two angular bounding
// lines) whose at most eight significant points yield a lower bound dlb and
// an upper bound dub on the maximum deviation, so that the expensive full
// deviation scan is needed only when the tolerance falls between the bounds
// — and never in the fast variant, which conservatively cuts the segment
// instead.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/trajcomp/bqs/internal/geom"
)

// Point is a trajectory sample in the projected metric plane.
type Point struct {
	X, Y float64 // projected coordinates in metres (e.g. UTM easting/northing)
	T    float64 // timestamp in seconds (any monotonic epoch)
}

// Vec returns the spatial components of p.
func (p Point) Vec() geom.Vec { return geom.Vec{X: p.X, Y: p.Y} }

// Equal reports whether two points coincide in space and time.
func (p Point) Equal(o Point) bool { return p.X == o.X && p.Y == o.Y && p.T == o.T }

// IsFinite reports whether all components are finite numbers.
func (p Point) IsFinite() bool { return finite(p.X) && finite(p.Y) && finite(p.T) }

// finite is false for NaN and ±Inf; one comparison, so the frames' valid
// checks inline.
func finite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }

// Metric selects the deviation metric. The paper defines deviation with the
// point-to-line distance "for simplicity of the proof" and notes that the
// point-to-segment distance "can be easily used within BQS too"
// (Equation 11); both are supported.
type Metric int

const (
	// MetricLine measures deviation as distance to the infinite line
	// through the segment endpoints (the paper's default).
	MetricLine Metric = iota
	// MetricSegment measures deviation as distance to the closed segment
	// between the endpoints.
	MetricSegment
)

// String returns the metric name.
func (m Metric) String() string {
	switch m {
	case MetricLine:
		return "line"
	case MetricSegment:
		return "segment"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Mode selects between the exact BQS algorithm and the fast variant.
type Mode int

const (
	// ModeExact is Algorithm 1: when the tolerance falls between the
	// bounds, the true deviation is computed over the buffered points.
	ModeExact Mode = iota
	// ModeFast is FBQS: uncertainty triggers a conservative segment cut,
	// eliminating the buffer and making each step O(1) time and space.
	ModeFast
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "bqs"
	case ModeFast:
		return "fbqs"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultRotationWarmup is the size of the tiny buffer used by the
// data-centric rotation step; the paper suggests "the first few points
// (e.g. 5)".
const DefaultRotationWarmup = 5

// Config parameterizes a Compressor.
type Config struct {
	// Tolerance is the deviation bound d in metres. Must be positive.
	Tolerance float64
	// Mode selects exact BQS or fast BQS. Default ModeExact.
	Mode Mode
	// Metric selects the deviation metric. Default MetricLine.
	Metric Metric
	// RotationWarmup is the number of far points buffered before the
	// data-centric rotation is fixed. 0 disables rotation; negative values
	// select DefaultRotationWarmup. Ignored by the 2-D compressor in ModeFast
	// under MetricLine, whose tangent wedge has no rotation to fix.
	RotationWarmup int
	// MaxBuffer caps the exact-mode deviation buffer; when the cap is
	// reached the segment is cut at the current point, mirroring the
	// buffer-full behaviour of the windowed baselines. 0 means unlimited.
	// Ignored in ModeFast, which keeps no buffer.
	MaxBuffer int
	// Trace, when non-nil, receives the bound pair computed for every
	// point that reaches the bounding structure, along with the true
	// deviation when it is available (exact mode only; NaN otherwise).
	// Used to regenerate Figure 3 of the paper.
	Trace func(TracePoint)
}

// TracePoint is one instrumented decision, as plotted in Figure 3.
type TracePoint struct {
	Index  int     // 1-based index of the point in the stream
	LB     float64 // aggregated lower bound dlb
	UB     float64 // aggregated upper bound dub
	Actual float64 // true max deviation (NaN in fast mode)
}

// Stats counts per-point decision outcomes. The paper's pruning power is
// 1 - FullComputations/Points: the fraction of points decided from bounds
// alone.
type Stats struct {
	Points            int // points pushed
	KeyPoints         int // key points emitted (including flushes)
	Segments          int // segment cuts (restarts)
	BoundIncludes     int // included because dub ≤ d
	BoundRestarts     int // cut because dlb > d
	FullComputations  int // exact deviation scans (warmup + uncertain cases)
	ExactIncludes     int // uncertain cases resolved to include
	ExactRestarts     int // uncertain cases resolved to cut
	UncertainRestarts int // fast-mode conservative cuts
	BufferOverflows   int // exact-mode forced cuts due to MaxBuffer
	DroppedPoints     int // non-finite inputs rejected at Push
}

// PruningPower returns the fraction of points decided without a full
// deviation computation (Section VI-C1). It returns 1 for an empty stream.
func (s Stats) PruningPower() float64 {
	if s.Points == 0 {
		return 1
	}
	return 1 - float64(s.FullComputations)/float64(s.Points)
}

// CompressionRate returns KeyPoints/Points, the paper's compression-rate
// metric (lower is better). It returns 0 for an empty stream.
func (s Stats) CompressionRate() float64 {
	if s.Points == 0 {
		return 0
	}
	return float64(s.KeyPoints) / float64(s.Points)
}

// Validate checks the configuration and applies defaults, returning the
// effective configuration.
func (c Config) Validate() (Config, error) {
	if math.IsNaN(c.Tolerance) || math.IsInf(c.Tolerance, 0) || c.Tolerance <= 0 {
		return c, errors.New("core: tolerance must be a positive finite number of metres")
	}
	if c.Tolerance <= geom.Eps {
		// The geometry layer resolves degeneracies at geom.Eps (1e-9 m,
		// far below GPS noise); a tolerance at or under it is meaningless
		// and would let tracked witness directions fall into the clipper's
		// epsilon regime. A tolerance this small usually means raw degrees
		// were fed in instead of projected metre coordinates.
		return c, errors.New("core: tolerance must exceed 1e-9 m — feed projected metre coordinates, not raw degrees")
	}
	if c.Mode != ModeExact && c.Mode != ModeFast {
		return c, fmt.Errorf("core: unknown mode %d", int(c.Mode))
	}
	if c.Metric != MetricLine && c.Metric != MetricSegment {
		return c, fmt.Errorf("core: unknown metric %d", int(c.Metric))
	}
	if c.RotationWarmup < 0 {
		c.RotationWarmup = DefaultRotationWarmup
	}
	if c.RotationWarmup > 1024 {
		return c, fmt.Errorf("core: rotation warmup %d unreasonably large", c.RotationWarmup)
	}
	if c.MaxBuffer < 0 {
		return c, errors.New("core: MaxBuffer must be ≥ 0")
	}
	return c, nil
}

// MaxDeviation returns the maximum deviation of pts from the path between
// s and e under the given metric. It is the full computation the bounds are
// designed to avoid.
func MaxDeviation(pts []Point, s, e Point, metric Metric) float64 {
	if metric == MetricSegment {
		return maxOver(pts, func(p Point) float64 { return geom.DistToSegment(p.Vec(), s.Vec(), e.Vec()) })
	}
	line := geom.Line{A: s.Vec(), B: e.Vec()}
	return maxOver(pts, func(p Point) float64 { return geom.DistToLine(p.Vec(), line) })
}

// Dist is the deviation of one point from the path between s and e under
// the metric: Deviation's parameter for the polyline compressors.
func (m Metric) Dist(p, s, e Point) float64 {
	if m == MetricSegment {
		return geom.DistToSegment(p.Vec(), s.Vec(), e.Vec())
	}
	return geom.DistToLine(p.Vec(), geom.Line{A: s.Vec(), B: e.Vec()})
}

// SyncDist is the time-synchronised distance of p from the segment (s, e):
// from p to where the segment, clamped to its ends, is at p's timestamp
// (SED, the error SQUISH-E and STTrace rank by).
func SyncDist(p, s, e Point) float64 {
	f := 0.0
	if dt := e.T - s.T; dt > 0 {
		f = min(max((p.T-s.T)/dt, 0), 1)
	}
	return p.Vec().Dist(geom.Lerp(s.Vec(), e.Vec(), f))
}

// Deviation is the paper's contract, written once (DESIGN.md, "The
// contract"): the worst distance of any point of orig from the polyline
// through keys, each measured with dist against the segment whose time span
// holds its timestamp. Both slices are in time order.
//
// A span is closed at both ends: a point sharing a key's timestamp is held
// to a segment that key ends — the nearer, for a key between two, since
// time alone cannot say on which side of it the point was taken — which
// reads 0 for the key itself. A point no segment covers (ahead of the first
// key, past the last, any point when there is one key) is measured against
// the nearest end key, as the segment from that key to itself. Points and
// no key: nothing was kept, +Inf.
func Deviation(orig, keys []Point, dist func(p, s, e Point) float64) (worst float64) {
	last := len(keys) - 1
	if last < 0 && len(orig) > 0 {
		return math.Inf(1)
	}
	ki := 0
	for _, p := range orig {
		for ki < last && keys[ki+1].T < p.T {
			ki++
		}
		s, e := keys[ki], keys[min(ki+1, last)]
		if p.T < s.T {
			e = s // ahead of the first key
		}
		d := dist(p, s, e)
		if p.T == e.T && ki+1 < last {
			d = min(d, dist(p, e, keys[ki+2]))
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

// maxOver returns the largest dist over pts: the one max-loop under
// MaxDeviation, MaxDeviation3 and MaxDeviationN. It and the distance
// closures inline, so the scan stays a plain loop. The builtin max keeps a
// NaN — a distance whose arithmetic overflowed — so the scan's caller cuts
// on it (deviation ≤ d is false) instead of never seeing it.
func maxOver[P any](pts []P, dist func(P) float64) float64 {
	var maxD float64
	for _, p := range pts {
		maxD = max(maxD, dist(p))
	}
	return maxD
}
