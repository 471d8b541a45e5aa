package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/trajcomp/bqs/internal/proto"
	"github.com/trajcomp/bqs/internal/synth"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// Wire coordinates are 1e-7 degrees and the daemon maps a degree to
// 1e5 m flat, so one wire unit is one centimetre of the projected
// plane. Tracks are generated directly on that integer lattice: what
// the generator holds is exactly what the daemon decodes, and the
// error-bound oracle needs no quantisation guesswork.
const (
	unitsPerMetre = 100
	unitsPerDeg   = 1e7
	metresPerDeg  = 1e5
	// cellUnits is the side of one device home cell: 10 km, the area
	// synth.Walk roams.
	cellUnits = 10_000 * unitsPerMetre
	// firstT is the timestamp of every device's first fix; fix n of a
	// device carries firstT+n (one fix per simulated second).
	firstT = 1
)

// track is one device's base lap on the wire lattice. Fix n of the
// device is the base translated lap by lap: lap k starts where lap k-1
// ended, so position and time are continuous and a run of any length
// costs the memory of one lap.
type track struct {
	lat, lon []int32
}

func (t *track) at(n int) (lat, lon int64) {
	l := len(t.lat)
	lap, i := int64(n/l), n%l
	return int64(t.lat[i]) + lap*int64(t.lat[l-1]-t.lat[0]),
		int64(t.lon[i]) + lap*int64(t.lon[l-1]-t.lon[0])
}

func geoKey(lat, lon int64, n int) trajstore.GeoKey {
	return trajstore.GeoKey{Lat: float64(lat) / unitsPerDeg, Lon: float64(lon) / unitsPerDeg, T: uint32(firstT + n)}
}

// fleet is a set of devices on a gridW × gridW cell grid; device i
// lives in cell i mod gridW².
type fleet struct {
	names  []string
	tracks []track
	gridW  int
}

// mix derives an independent 63-bit seed from the run seed, the
// workload name and a stream number (splitmix64 finaliser).
func mix(seed int64, workload string, stream uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	z := uint64(seed) + h.Sum64() + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z &^ (1 << 63))
}

// newFleet builds devices firstID..firstID+n-1. cut selects the
// urban-grid track (a turn far larger than the tolerance every few
// fixes); otherwise tracks are synth.Walk, the paper's correlated
// random walk.
func newFleet(seed int64, workload string, firstID, n, gridW, baseLen int, cut bool) *fleet {
	f := &fleet{names: make([]string, n), tracks: make([]track, n), gridW: gridW}
	for i := 0; i < n; i++ {
		id := firstID + i
		f.names[i] = fmt.Sprintf("d%05d", id)
		cell := id % (gridW * gridW)
		ox, oy := int64(cell%gridW)*cellUnits, int64(cell/gridW)*cellUnits
		s := mix(seed, workload, uint64(id))
		if cut {
			f.tracks[i] = cutTrack(s, ox, oy, baseLen)
		} else {
			f.tracks[i] = smoothTrack(s, ox, oy, baseLen)
		}
	}
	return f
}

func smoothTrack(seed, ox, oy int64, n int) track {
	cfg := synth.DefaultWalkConfig(seed)
	cfg.N = n
	tr := synth.Walk(cfg)
	t := track{lat: make([]int32, n), lon: make([]int32, n)}
	for i, s := range tr.Samples {
		t.lon[i] = int32(ox + int64(math.Round(s.P.X*unitsPerMetre)))
		t.lat[i] = int32(oy + int64(math.Round(s.P.Y*unitsPerMetre)))
	}
	return t
}

// cutTrack drives a street grid from the cell centre: 30 m per fix,
// a left or right turn every 2-4 fixes, and up to 6 m of GPS jitter on
// each axis. Every corner is a key point at a 10 m tolerance, so
// roughly a third of the fixes survive; the jitter keeps the discarded
// fixes off the kept line, so the deviation oracle has something to
// measure.
func cutTrack(seed, ox, oy int64, n int) track {
	const step, jitter = 30 * unitsPerMetre, 6 * unitsPerMetre
	rng := rand.New(rand.NewSource(seed))
	dx := [4]int64{step, 0, -step, 0}
	dy := [4]int64{0, step, 0, -step}
	x, y := ox+cellUnits/2, oy+cellUnits/2
	dir, run := rng.Intn(4), 0
	t := track{lat: make([]int32, n), lon: make([]int32, n)}
	for i := 0; i < n; i++ {
		t.lon[i] = int32(x + rng.Int63n(2*jitter+1) - jitter)
		t.lat[i] = int32(y + rng.Int63n(2*jitter+1) - jitter)
		if run == 0 {
			dir = (dir + 1 + 2*rng.Intn(2)) % 4
			run = 2 + rng.Intn(3)
		}
		x, y = x+dx[dir], y+dy[dir]
		run--
	}
	return t
}

// frameGen produces one writer connection's frames: frame j carries
// fixes [w*ff, (w+1)*ff) of device group j mod groups, w = j / groups.
// The key slab and batch slice are reused, so the generator's memory
// is one frame per connection.
type frameGen struct {
	fl      *fleet
	devs    []int // indices into fl owned by this connection
	fd, ff  int   // devices per frame, fixes per device per frame
	keys    []trajstore.GeoKey
	batches []proto.DeviceBatch
}

func newFrameGen(fl *fleet, devs []int, fd, ff int) *frameGen {
	if len(devs)%fd != 0 {
		panic(fmt.Sprintf("bench: %d devices do not split into frames of %d", len(devs), fd))
	}
	return &frameGen{fl: fl, devs: devs, fd: fd, ff: ff,
		keys: make([]trajstore.GeoKey, fd*ff), batches: make([]proto.DeviceBatch, fd)}
}

func (g *frameGen) groups() int { return len(g.devs) / g.fd }

// fill builds frame j into the reused buffers; the result is valid
// until the next fill.
func (g *frameGen) fill(j int) []proto.DeviceBatch {
	grp, w := j%g.groups(), j/g.groups()
	for i := 0; i < g.fd; i++ {
		d := g.devs[grp*g.fd+i]
		ks := g.keys[i*g.ff : (i+1)*g.ff]
		for k := range ks {
			n := w*g.ff + k
			lat, lon := g.fl.tracks[d].at(n)
			ks[k] = geoKey(lat, lon, n)
		}
		g.batches[i] = proto.DeviceBatch{Device: g.fl.names[d], Keys: ks}
	}
	return g.batches
}

// inputs is everything one run sends: a pure function of the workload,
// the seed and the sizes.
type inputs struct {
	pre  *fleet      // preloaded devices; nil without a preload
	fl   *fleet      // devices written in the measured phase
	gens []*frameGen // one per writer connection, over disjoint devices
	qs   []query
}

func (sp *spec) generate(seed int64, z sizes) *inputs {
	in := &inputs{fl: newFleet(seed, sp.name, sp.firstID, sp.devices, sp.gridW, sp.baseLen, sp.cut)}
	per := sp.devices / sp.conns
	for c := 0; c < sp.conns; c++ {
		in.gens = append(in.gens, newFrameGen(in.fl, seq(c*per, per), sp.frameDevices, sp.frameFixes))
	}
	tmax := uint32(firstT + sp.fixesPerDevice(z))
	if p := sp.preload; p != nil {
		in.pre = newFleet(seed, sp.name, 0, p.devices, sp.gridW, sp.baseLen, sp.cut)
		tmax = uint32(firstT + p.fixes)
	}
	in.qs = genQueries(seed, sp.name, z.queries, in.devices(), sp.gridW, tmax, sp.fullFrac)
	return in
}

// devices names every device the daemon will hold, preloaded first.
func (in *inputs) devices() []string {
	if in.pre == nil {
		return in.fl.names
	}
	return append(append([]string{}, in.pre.names...), in.fl.names...)
}

// Preload frame shape: 64 devices × 50 fixes.
const (
	preloadFrameDevices = 64
	preloadFrameFixes   = 50
)

// preloadFrames returns the preload fleet's generator and frame count.
func (in *inputs) preloadFrames(fixesPerDevice int) (*frameGen, int) {
	g := newFrameGen(in.pre, seq(0, len(in.pre.names)), preloadFrameDevices, preloadFrameFixes)
	return g, g.groups() * (fixesPerDevice / preloadFrameFixes)
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// Query kinds.
const (
	qSel = iota
	qDev
	qFull
	numQueryKinds
)

var queryKindName = [numQueryKinds]string{"sel", "dev", "full"}

type query struct {
	kind                           int
	minLon, minLat, maxLon, maxLat float64
	t0, t1                         uint32
	device                         string
}

// selSide is the side of a selective window in cells: 6 on a 32 × 32
// grid and in proportion on the others, so a window always covers
// about 3.5 % of the fleet.
func selSide(gridW int) int { return max((gridW*6+16)/32, 1) }

// mixBlock is the query mix in its smallest whole numbers: of every 20
// queries 16 are selective windows, 3 per-device time queries and 1 a
// full window. The kinds are dealt block by block, shuffled inside the
// block, so every run of a workload has exactly the same number of each
// — a full window costs ten selective ones, and a binomial draw of how
// many a run gets would be most of the spread of its queries per second.
var mixBlock = [20]int{qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qSel, qDev, qDev, qDev, qFull}

// genQueries builds the seeded query mix: 80 % selective windows whose
// cell follows Zipf(1.1) over a seeded cell permutation (half over all
// time, half over the last quarter), 15 % per-device time queries, 5 %
// full windows. fullFrac is the share of grid columns a full window
// spans — 1 where the whole fleet fits one response frame.
func genQueries(seed int64, workload string, n int, devices []string, gridW int, tmax uint32, fullFrac float64) []query {
	rng := rand.New(rand.NewSource(mix(seed, workload, 1<<40)))
	cells := gridW * gridW
	perm := rng.Perm(cells)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(cells-1))
	cellDeg := float64(cellUnits) / unitsPerDeg
	selCells := selSide(gridW)
	out := make([]query, n)
	var kinds [len(mixBlock)]int
	for i := range out {
		if i%len(kinds) == 0 {
			kinds = mixBlock
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		q := query{kind: kinds[i%len(kinds)], t0: 0, t1: math.MaxUint32}
		switch q.kind {
		case qSel:
			c := perm[zipf.Uint64()]
			x0 := clampInt(c%gridW-selCells/2+1, 0, max(gridW-selCells, 0))
			y0 := clampInt(c/gridW-selCells/2+1, 0, max(gridW-selCells, 0))
			q.minLon, q.maxLon = float64(x0)*cellDeg, float64(x0+selCells)*cellDeg
			q.minLat, q.maxLat = float64(y0)*cellDeg, float64(y0+selCells)*cellDeg
			if rng.Intn(2) == 1 {
				q.t0, q.t1 = tmax-tmax/4, tmax
			}
		case qDev:
			q.device = devices[rng.Intn(len(devices))]
		case qFull:
			q.minLon, q.maxLon = -180, -180+(360*fullFrac)
			if fullFrac < 1 {
				q.minLon, q.maxLon = 0, float64(gridW)*cellDeg*fullFrac
			}
			q.minLat, q.maxLat = -90, 90
		}
		out[i] = q
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
