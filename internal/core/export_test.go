package core

// What the external tests (package core_test, which may import synth) need
// of the package's insides.

// ArcsDropped is the count of two-arc intersections the 2-D frame's tangent
// wedge kept one arc of.
func (c *Compressor) ArcsDropped() int {
	if f, ok := c.frame.(*quadFrame); ok {
		return f.wedge.dropped
	}
	return c.frame.(*lineFrame).wedge.dropped
}

// DecisionTraces are TestDecisionsGolden's 2-D trajectories.
func DecisionTraces() [][]Point { return decisionTraces(100, decisionWalk) }
