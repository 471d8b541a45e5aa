package baseline

import (
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
)

// STTrace (Potamias, Patroumpas, Sellis — SSDBM 2006) is the fixed-memory
// sampling baseline the paper cites as beyond its target hardware: it keeps
// a bounded buffer of samples and, when a new point arrives on a full
// buffer, evicts the buffered point whose removal distorts the kept
// polyline least (smallest synchronized distance to the line between its
// buffer neighbours). A velocity-prediction filter drops points that dead
// reckoning from the kept tail already predicts well.
//
// Like SQUISH it bounds memory, not error; it is provided for ablation
// studies against the error-bounded family.
//
// Not safe for concurrent use.
type STTrace struct {
	threshold float64 // prediction-deviation filter (0 keeps every sample)
	kept      *squish // the bounded sample, ranked by SED alone: nothing accumulates
	points    int
}

// NewSTTrace returns an STTrace sampler holding at most capacity points.
// threshold is the prediction-error filter in metres; 0 disables it.
func NewSTTrace(capacity int, threshold float64) (*STTrace, error) {
	if capacity < 3 {
		return nil, ErrBadBuffer
	}
	if threshold < 0 {
		return nil, ErrBadTolerance
	}
	return &STTrace{threshold: threshold, kept: newSquish(capacity, false)}, nil
}

// Push feeds the next sample. Points filtered by the prediction test are
// dropped; otherwise the point joins the sample and the least-significant
// interior point is evicted once the capacity is exceeded (the two
// endpoints are never evicted).
func (c *STTrace) Push(p core.Point) {
	c.points++
	if c.threshold > 0 && c.kept.tail >= 0 {
		last := c.kept.all[c.kept.tail]
		if last.prev >= 0 {
			prev := c.kept.all[last.prev]
			dt := last.p.T - prev.p.T
			if dt > 0 {
				vx := (last.p.X - prev.p.X) / dt
				vy := (last.p.Y - prev.p.Y) / dt
				dtp := p.T - last.p.T
				pred := geom.V(last.p.X+vx*dtp, last.p.Y+vy*dtp)
				if pred.Dist(p.Vec()) < c.threshold {
					return // predictable: not interesting
				}
			}
		}
	}
	c.kept.push(p)
}

// Result returns the kept sample in temporal order.
func (c *STTrace) Result() []core.Point { return c.kept.result() }

// Stats returns samples consumed and currently kept.
func (c *STTrace) Stats() (points, kept int) { return c.points, c.kept.h.Len() }
