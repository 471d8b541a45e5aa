package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/server"
	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
)

func doQuery(c *server.Client, q query) ([]trajstore.PersistedRecord, error) {
	if q.kind == qDev {
		return c.QueryTime(q.device, q.t0, q.t1)
	}
	return c.QueryWindow(q.minLon, q.minLat, q.maxLon, q.maxLat, q.t0, q.t1)
}

// snapshot is everything the daemon holds, fetched device by device.
// The comparable form of a device is its canonical polyline: records in
// time order, concatenated, with the key point that consecutive chunks
// share kept once. Background and drain-time compaction re-join chunks,
// so record counts legitimately change across a restart; the canonical
// polyline does not.
type snapshot struct {
	recs  []trajstore.PersistedRecord
	canon map[string][]trajstore.GeoKey
}

func (r *e2eRun) takeSnapshot(devices []string) (*snapshot, error) {
	s := &snapshot{canon: make(map[string][]trajstore.GeoKey)}
	for _, dev := range devices {
		recs, err := r.qconn.QueryTime(dev, 0, math.MaxUint32)
		if err != nil {
			return nil, fmt.Errorf("QueryTime(%s): %w", dev, err)
		}
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].T0 != recs[j].T0 {
				return recs[i].T0 < recs[j].T0
			}
			return recs[i].T1 < recs[j].T1
		})
		var canon []trajstore.GeoKey
		for _, rec := range recs {
			for _, k := range rec.Keys {
				if n := len(canon); n > 0 && canon[n-1] == k {
					continue
				}
				canon = append(canon, k)
			}
		}
		s.canon[dev] = canon
		s.recs = append(s.recs, recs...)
	}
	return s, nil
}

// holds reports whether every device of o has the canonical polyline
// it has in s, recording the first few differences.
func (s *snapshot) holds(o *snapshot, res *result) bool {
	ok := true
	for dev, b := range o.canon {
		a := s.canon[dev]
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == b[i]
		}
		if !same {
			ok = false
			if len(res.Failures) < 10 {
				res.Failures = append(res.Failures, fmt.Sprintf("device %s: %d key points before, %d after", dev, len(a), len(b)))
			}
		}
	}
	return ok
}

// units converts a wire coordinate back to the integer lattice.
func units(deg float64) int64 { return int64(math.Round(deg * unitsPerDeg)) }

// deviation returns the distance in metres from fix (lat, lon) to the
// line through key points a and b — the line metric the compressors
// are configured with — or to the point when the two coincide.
func deviation(lat, lon int64, a, b trajstore.GeoKey) float64 {
	ax, ay := float64(units(a.Lon)), float64(units(a.Lat))
	bx, by := float64(units(b.Lon)), float64(units(b.Lat))
	px, py := float64(lon), float64(lat)
	dx, dy := bx-ax, by-ay
	l := math.Hypot(dx, dy)
	if l == 0 {
		return math.Hypot(px-ax, py-ay) / unitsPerMetre
	}
	return math.Abs(dx*(py-ay)-dy*(px-ax)) / l / unitsPerMetre
}

// maxDeviation replays fixes 0..n-1 of a track against the canonical
// polyline the daemon returned. covered is false when some fix lies
// outside the polyline's time span — an acked fix the daemon lost.
func maxDeviation(tr *track, n int, canon []trajstore.GeoKey) (worst float64, covered bool) {
	if len(canon) == 0 {
		return 0, false
	}
	i := 0
	for f := 0; f < n; f++ {
		t := uint32(firstT + f)
		for i+1 < len(canon) && canon[i+1].T < t {
			i++
		}
		lat, lon := tr.at(f)
		switch {
		case t < canon[i].T || (i+1 == len(canon) && t > canon[i].T):
			return worst, false
		case i+1 == len(canon):
			worst = math.Max(worst, deviation(lat, lon, canon[i], canon[i]))
		default:
			worst = math.Max(worst, deviation(lat, lon, canon[i], canon[i+1]))
		}
	}
	return worst, true
}

// compressTrack runs the daemon's compressor in process over fixes
// 0..n-1 of a track, through the same unit conversions the server and
// engine apply, and returns the key points on the wire lattice.
func compressTrack(tr *track, n int) ([]trajstore.GeoKey, error) {
	c, err := stream.New(compressor, tolerance)
	if err != nil {
		return nil, err
	}
	var keys []core.Point
	for f := 0; f < n; f++ {
		lat, lon := tr.at(f)
		k := geoKey(lat, lon, f)
		if kp, ok := c.Push(core.Point{X: k.Lon * metresPerDeg, Y: k.Lat * metresPerDeg, T: float64(k.T)}); ok {
			keys = append(keys, kp)
		}
	}
	if kp, ok := c.Flush(); ok {
		keys = append(keys, kp)
	}
	geo := trajstore.PointKeysToGeo(keys, metresPerDeg, metresPerDeg)
	for i := range geo { // what the codec's 1e-7° rounding leaves
		geo[i].Lat, geo[i].Lon = float64(units(geo[i].Lat))/unitsPerDeg, float64(units(geo[i].Lon))/unitsPerDeg
	}
	return geo, nil
}

// windowMatches mirrors the log's window predicate: some consecutive
// key-point pair has a bounding box meeting the window and a time span
// meeting [t0, t1].
func windowMatches(keys []trajstore.GeoKey, q query) bool {
	for i := 0; i+1 < len(keys); i++ {
		a, b := keys[i], keys[i+1]
		if math.Min(a.Lon, b.Lon) > q.maxLon || math.Max(a.Lon, b.Lon) < q.minLon ||
			math.Min(a.Lat, b.Lat) > q.maxLat || math.Max(a.Lat, b.Lat) < q.minLat ||
			min(a.T, b.T) > q.t1 || max(a.T, b.T) < q.t0 {
			continue
		}
		return true
	}
	return false
}

// oracleDevice is one device the error-bound oracle replays.
type oracleDevice struct {
	fl *fleet
	i  int
	n  int  // fixes sent
	ex bool // flush points deterministic: stored key points must equal the in-process compressor's
}

// oracleSample picks the seeded sample of devices both the daemon run
// and the in-process core run are held to the bound on.
func oracleSample(sp *spec, seed int64, pre, fl *fleet, fixes, n int) []oracleDevice {
	var pool []oracleDevice
	if pre != nil {
		for i := range pre.names {
			pool = append(pool, oracleDevice{pre, i, sp.preload.fixes, true})
		}
	}
	for i := range fl.names {
		pool = append(pool, oracleDevice{fl, i, fixes, !sp.syncFlush})
	}
	rng := rand.New(rand.NewSource(mix(seed, sp.name, 1<<41)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:min(n, len(pool))]
}

// verifyContent is the correctness gate on the flushed daemon: the
// error bound for a sample of devices against their raw fixes, exact
// agreement with the in-process compressor where flush points are
// deterministic, and selective windows against a brute-force filter.
func (r *e2eRun) verifyContent(s *snapshot) {
	sp, res := r.sp, r.res
	pool := oracleSample(sp, r.seed, r.pre, r.fl, sp.fixesPerDevice(r.z), r.z.oracleDevices)

	slack := 1.0 / unitsPerMetre / tolerance // one lattice step of quantisation, over ε
	worst := 0.0
	for _, d := range pool {
		name, tr := d.fl.names[d.i], &d.fl.tracks[d.i]
		canon := s.canon[name]
		dev, covered := maxDeviation(tr, d.n, canon)
		res.check(covered, "device %s: fixes outside the stored polyline (%d key points for %d fixes)", name, len(canon), d.n)
		res.check(dev <= tolerance*(1+slack), "device %s: deviation %.4f m exceeds the %.0f m bound", name, dev, tolerance)
		worst = math.Max(worst, dev)
		if d.ex {
			want, err := compressTrack(tr, d.n)
			same := err == nil && len(want) == len(canon)
			for i := 0; same && i < len(want); i++ {
				same = want[i] == canon[i]
			}
			res.check(same, "device %s: stored key points differ from the in-process %s run (%d vs %d)", name, compressor, len(canon), len(want))
		}
	}
	res.E2E["max_dev_over_eps"] = metric{worst / tolerance, "ratio"}
	res.Samples["max_dev_over_eps"] = len(pool)

	// Selective windows against the brute-force filter of everything
	// stored. Compaction may re-join a device's chunks between the
	// snapshot and the query, so the comparison is per device: the same
	// devices match, and every returned record really matches.
	var sel []query
	for _, q := range r.qs {
		if q.kind == qSel && len(sel) < r.z.checkWindows {
			sel = append(sel, q)
		}
	}
	for _, q := range sel {
		got, err := doQuery(r.qconn, q)
		if err != nil {
			res.check(false, "check window: %v", err)
			continue
		}
		want := map[string]bool{}
		for _, rec := range s.recs {
			if windowMatches(rec.Keys, q) {
				want[rec.Device] = true
			}
		}
		have := map[string]bool{}
		exact := true
		for _, rec := range got {
			have[rec.Device] = true
			exact = exact && windowMatches(rec.Keys, q)
		}
		same := exact && len(have) == len(want)
		for d := range want {
			same = same && have[d]
		}
		res.check(same, "window [%g,%g]x[%g,%g] t[%d,%d]: daemon matched %d devices, brute force %d", q.minLon, q.maxLon, q.minLat, q.maxLat, q.t0, q.t1, len(have), len(want))
	}
}
