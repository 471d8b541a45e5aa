package baseline

import (
	"math"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/geom"
)

// DeadReckoning implements the dead-reckoning location-update policy
// (Trajcevski et al., MobiDE'06) the paper compares FBQS against on the
// synthetic dataset: the tracker reports a point together with its current
// velocity; afterwards the reconstructed position is extrapolated linearly,
// and a new report is issued only when the true position drifts more than
// the tolerance away from the extrapolation. The reconstruction error is
// therefore bounded by the tolerance at every sample instant.
//
// Velocities may be supplied with each sample (the synthetic generator
// provides ground-truth velocities, which the paper's setting requires:
// "continuous high-frequency samples with speed readings"); when absent
// they are estimated by finite differences of consecutive samples.
//
// Note each report carries position, timestamp and velocity, so a DR
// "point" costs more storage than a BQS key point; the paper compares raw
// point counts, and so does this implementation.
//
// Not safe for concurrent use.
type DeadReckoning struct {
	tolerance float64

	opened   bool
	anchor   core.Point // last reported point
	vx, vy   float64    // velocity at the anchor
	prev     core.Point // previous raw sample (finite-difference state)
	havePrev bool

	points, reports int
}

// NewDeadReckoning returns a dead-reckoning reporter with the given
// tolerance in metres.
func NewDeadReckoning(tolerance float64) (*DeadReckoning, error) {
	if err := checkTolerance(tolerance); err != nil {
		return nil, err
	}
	return &DeadReckoning{tolerance: tolerance}, nil
}

// PushV feeds the next sample with its instantaneous velocity in m/s.
// It returns the reported point and true when this sample triggered a
// report.
func (c *DeadReckoning) PushV(p core.Point, vx, vy float64) (core.Point, bool) {
	c.points++
	if !c.opened {
		c.opened = true
		c.anchor, c.vx, c.vy = p, vx, vy
		c.prev, c.havePrev = p, true
		c.reports++
		return p, true
	}
	c.prev, c.havePrev = p, true
	if drift(c.anchor, c.vx, c.vy, p) > c.tolerance {
		c.anchor, c.vx, c.vy = p, vx, vy
		c.reports++
		return p, true
	}
	return core.Point{}, false
}

// Push feeds the next sample, estimating its velocity from the previous
// raw sample.
func (c *DeadReckoning) Push(p core.Point) (core.Point, bool) {
	var vx, vy float64
	if c.havePrev {
		vx, vy = finiteDiff(c.prev, p)
	}
	return c.PushV(p, vx, vy)
}

// drift is how far p lies from where the report anchor, moving at
// (vx, vy), says it is at p's time.
func drift(anchor core.Point, vx, vy float64, p core.Point) float64 {
	dt := p.T - anchor.T
	return geom.V(p.X-(anchor.X+vx*dt), p.Y-(anchor.Y+vy*dt)).Norm()
}

// finiteDiff estimates p's velocity from the sample before it; zero when
// no time passed between them.
func finiteDiff(prev, p core.Point) (vx, vy float64) {
	if dt := p.T - prev.T; dt > 0 && !math.IsInf(dt, 0) {
		vx, vy = (p.X-prev.X)/dt, (p.Y-prev.Y)/dt
	}
	return vx, vy
}

// Flush closes the trajectory; dead reckoning has no pending state, so it
// only resets for the next trajectory and reports whether a final point was
// due (never: the last report already anchors the tail).
func (c *DeadReckoning) Flush() (core.Point, bool) {
	c.opened = false
	c.havePrev = false
	return core.Point{}, false
}

// Stats returns samples consumed and reports issued.
func (c *DeadReckoning) Stats() (points, reports int) { return c.points, c.reports }

// DeadReckoningError replays reports — the points a DeadReckoning returned,
// in order — over the fixes it was fed and returns the worst distance of
// any unreported fix from where the last report before it, moving at that
// report's velocity, says it is: the error the tolerance bounds. vel holds
// the velocity PushV got with each fix; nil means Push's finite
// differences. A fix with no report before it has nothing to be held to,
// and a report that is none of the fixes is no report of theirs: +Inf.
func DeadReckoningError(fixes []core.Point, vel []geom.Vec, reports []core.Point) (worst float64) {
	var anchor core.Point
	var av geom.Vec
	ri := 0
	for i, p := range fixes {
		var v geom.Vec
		if vel != nil {
			v = vel[i]
		} else if i > 0 {
			v.X, v.Y = finiteDiff(fixes[i-1], p)
		}
		switch {
		case ri < len(reports) && p.Equal(reports[ri]):
			anchor, av, ri = p, v, ri+1
		case ri == 0:
			return math.Inf(1)
		default:
			if d := drift(anchor, av.X, av.Y, p); d > worst {
				worst = d
			}
		}
	}
	if ri < len(reports) {
		return math.Inf(1)
	}
	return worst
}
