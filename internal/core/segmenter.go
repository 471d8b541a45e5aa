package core

import "math"

// frame is the geometry Algorithm 1 runs over: one dimensionality's
// bounding structure (four quadrants, eight octants, k-D orthant boxes, or
// FBQS's tangent wedge alone), anchored at the current segment start. The
// decision loop in segmenter owns every decision and every counter; a frame
// answers only what geometry must. bounds and insert take the raw point —
// mapping it into the local (translated, rotated) coordinates is the frame's
// business — so that mapping, the per-quadrant loop and the bound evaluation
// stay concrete, inlinable code behind one dynamic call each.
type frame[P any] interface {
	// valid reports whether every component of p is a finite number.
	valid(p P) bool
	// equal reports whether a and b coincide in space and time.
	equal(a, b P) bool
	// anchor starts a segment at p: local origin p, empty bounding
	// structure, no rotation.
	anchor(p P)
	// orient fixes the data-centric rotation (Section V-D) from the
	// segment's warm-up points and inserts them.
	orient(warmup []P)
	// far reports whether p lies more than tol from the anchor; only far
	// points are ever tracked (Theorem 5.1).
	far(p P, tol float64) bool
	// insert adds a far point to the bounding structure.
	insert(p P)
	// bounds returns the lower and upper bound, aggregated over the whole
	// structure, on the maximum deviation of the tracked points from the
	// path anchor → e (Algorithm 1, lines 4-5); (0, 0) when nothing is
	// tracked.
	bounds(e P, metric Metric) (dlb, dub float64)
	// deviation is the full computation the bounds exist to avoid: the
	// maximum deviation of pts from the path anchor → e.
	deviation(pts []P, e P, metric Metric) float64
	// snap returns the key point a cut or flush at the verified end p
	// emits: p itself, but for FBQS's grid frame.
	snap(p P) P
}

// segmenter is Algorithm 1, written once: the streaming BQS/FBQS decision
// procedure over any frame. Compressor, Compressor3 and CompressorN are
// this loop instantiated with their point type and handed their frame; their
// Push, Flush, Reset, Stats, Config and BufferedPoints are the methods below.
type segmenter[P any] struct {
	cfg   Config
	stats Stats
	frame frame[P]

	started  bool
	lastInc  P // last point verified as a valid segment end
	lastEmit P
	haveEmit bool

	warmupDone bool // bounding structure active
	warmup     []P  // far points buffered before the rotation is fixed
	tracked    int  // far points in the bounding structure
	buffer     []P  // exact mode: the tracked points, for deviation scans
}

// newSegmenter returns an idle loop over f; cfg must have been validated.
func newSegmenter[P any](cfg Config, f frame[P]) segmenter[P] {
	s := segmenter[P]{cfg: cfg, frame: f}
	if cfg.RotationWarmup > 0 {
		s.warmup = make([]P, 0, cfg.RotationWarmup)
	}
	s.idle()
	return s
}

// Config returns the effective configuration.
func (s *segmenter[P]) Config() Config { return s.cfg }

// Stats returns the accumulated decision statistics.
func (s *segmenter[P]) Stats() Stats { return s.stats }

// BufferedPoints returns the number of points currently buffered for exact
// deviation scans (always ≤ RotationWarmup in fast mode).
func (s *segmenter[P]) BufferedPoints() int { return len(s.buffer) + len(s.warmup) }

// Reset clears all state and statistics.
func (s *segmenter[P]) Reset() {
	s.stats = Stats{}
	s.haveEmit = false
	s.idle()
}

// idle clears the per-segment state and waits for the first point of a
// trajectory.
func (s *segmenter[P]) idle() {
	var zero P
	s.startSegment(zero)
	s.started = false
}

// startSegment re-anchors the local coordinate system at p and clears all
// per-segment state.
func (s *segmenter[P]) startSegment(p P) {
	s.started = true
	s.lastInc = p
	s.warmupDone = s.cfg.RotationWarmup == 0
	s.warmup = s.warmup[:0]
	s.tracked = 0
	s.buffer = s.buffer[:0]
	s.frame.anchor(p)
}

// emit records kp as an emitted key point.
func (s *segmenter[P]) emit(kp P) {
	s.lastEmit = kp
	s.haveEmit = true
	s.stats.KeyPoints++
}

// Push feeds the next point of the stream. It returns a finalized key point
// and true when a key point was emitted by this push (the first point of a
// trajectory, a segment cut, or an exact-mode buffer overflow cut).
// Non-finite points (NaN/Inf coordinates or timestamps — a failed GPS fix)
// are dropped and counted in Stats.DroppedPoints; they would otherwise
// poison every subsequent geometric decision.
func (s *segmenter[P]) Push(p P) (P, bool) {
	if !s.frame.valid(p) {
		s.stats.DroppedPoints++
		var none P
		return none, false
	}
	s.stats.Points++
	if !s.started {
		s.startSegment(p)
		s.emit(p)
		return p, true
	}
	return s.process(p)
}

// Flush terminates the current trajectory, returning the final key point if
// one is due. The compressor is left ready for a new trajectory (statistics
// keep accumulating; use Reset to clear everything).
func (s *segmenter[P]) Flush() (P, bool) {
	if !s.started {
		var none P
		return none, false
	}
	kp := s.frame.snap(s.lastInc)
	emit := !(s.haveEmit && s.frame.equal(s.lastEmit, kp))
	if emit {
		s.emit(kp)
	}
	s.idle()
	return kp, emit
}

// process runs the BQS decision procedure for point e against the current
// segment.
func (s *segmenter[P]) process(e P) (P, bool) {
	d := s.cfg.Tolerance

	// scanned is what a full deviation computation has to visit.
	scanned := s.buffer
	if !s.warmupDone {
		// The data-centric rotation buffer is still filling: decisions are
		// exact scans over it (constant work, ≤ RotationWarmup points).
		if len(s.warmup) == 0 {
			s.stats.BoundIncludes++ // trivially safe: nothing tracked yet
			return s.include(e)
		}
		scanned = s.warmup
	} else {
		dlb, dub := s.frame.bounds(e, s.cfg.Metric)

		if s.cfg.Trace != nil && s.tracked > 0 {
			actual := math.NaN()
			if s.cfg.Mode == ModeExact {
				actual = s.frame.deviation(s.buffer, e, s.cfg.Metric)
			}
			s.cfg.Trace(TracePoint{Index: s.stats.Points, LB: dlb, UB: dub, Actual: actual})
		}

		switch {
		case dub <= d:
			// Algorithm 1 lines 6-7: no tracked point can deviate beyond d.
			s.stats.BoundIncludes++
			return s.include(e)
		case dlb > d:
			// Algorithm 1 lines 8-9: some tracked point must deviate beyond d.
			s.stats.BoundRestarts++
			return s.restartAt(e)
		case s.cfg.Mode == ModeFast:
			// dlb ≤ d < dub, FBQS: cut conservatively instead of scanning a
			// buffer.
			s.stats.UncertainRestarts++
			return s.restartAt(e)
		}
	}

	s.stats.FullComputations++
	if s.frame.deviation(scanned, e, s.cfg.Metric) <= d {
		s.stats.ExactIncludes++
		return s.include(e)
	}
	s.stats.ExactRestarts++
	return s.restartAt(e)
}

// include accepts e into the current segment. Near points (within the
// tolerance of the segment start, Theorem 5.1) are never tracked: they can
// not push any future deviation beyond the tolerance. Far points enter the
// warmup buffer or the bounding structure, and the exact-mode deviation
// buffer. Returns a key point when a MaxBuffer overflow forces a cut.
func (s *segmenter[P]) include(e P) (P, bool) {
	var none P
	s.lastInc = e
	if !s.frame.far(e, s.cfg.Tolerance) {
		return none, false // Theorem 5.1: safe interior forever; untracked.
	}

	if !s.warmupDone {
		s.warmup = append(s.warmup, e)
		if len(s.warmup) >= s.cfg.RotationWarmup {
			s.frame.orient(s.warmup)
			s.warmupDone = true
			s.tracked = len(s.warmup)
			if s.cfg.Mode == ModeExact {
				s.buffer = append(s.buffer, s.warmup...)
			}
			s.warmup = s.warmup[:0]
		}
		return none, false
	}

	s.frame.insert(e)
	s.tracked++
	if s.cfg.Mode == ModeExact {
		s.buffer = append(s.buffer, e)
		if s.cfg.MaxBuffer > 0 && len(s.buffer) >= s.cfg.MaxBuffer {
			// Forced cut at the just-verified point, mirroring the windowed
			// baselines' buffer-full behaviour.
			s.stats.BufferOverflows++
			s.stats.Segments++
			s.emit(e)
			s.startSegment(e)
			return e, true
		}
	}
	return none, false
}

// restartAt ends the current segment at the last verified point's snap,
// emits it, and opens a fresh segment there that absorbs e. In the fresh
// segment e is always includable — either it is within tolerance of the new
// origin or nothing is tracked yet — and cannot overflow: a far e lands in
// the warmup buffer when there is one, and without one MaxBuffer 1 (the only
// cap a single point reaches) cuts at every far point, so nothing is ever
// tracked to restart from.
func (s *segmenter[P]) restartAt(e P) (P, bool) {
	kp := s.frame.snap(s.lastInc)
	s.stats.Segments++
	s.emit(kp)
	s.startSegment(kp)
	s.include(e)
	return kp, true
}

// compressBatch pushes pts and flushes, returning the key points.
func (s *segmenter[P]) compressBatch(pts []P) []P {
	if len(pts) == 0 {
		return nil
	}
	out := make([]P, 0, 16)
	for _, p := range pts {
		if kp, ok := s.Push(p); ok {
			out = append(out, kp)
		}
	}
	if kp, ok := s.Flush(); ok {
		out = append(out, kp)
	}
	return out
}
