package stream

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/trajstore"
)

// snapRun is what one stream did to the registered "fbqs": the fixes pushed
// and the keys an engine stores of them, each run after a flush cut re-armed
// with the key it ended on.
type snapRun struct {
	tol   float64
	fixes []core.Point
	keys  []core.Point
}

// snapStream drives "fbqs" through the moves data spells, a byte each: its
// low three bits pick the move, the rest size it. Moves go straight on, turn,
// double back, jitter in place, jump far, repeat the last fix exactly, cut
// with a flush, or cut, push one fix and cut again (a one-fix run). A cut
// session is re-armed as the engine re-arms it: the last key pushed back in,
// what that Push returns dropped. The first byte picks ε, the second where
// in the plane the stream runs: with its top bit set, at the corner of the
// plane its next two bits pick, a move past the plane's edge folded back
// inside, so that keys are cut a few metres from the antimeridian and the
// poles. Fixes sit on the wire's 1 cm lattice.
func snapStream(t *testing.T, data []byte) snapRun {
	t.Helper()
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	run := snapRun{tol: []float64{1, 5, 10, 25}[data[0]%4]}
	c, err := New("fbqs", run.tol)
	if err != nil {
		t.Fatal(err)
	}
	x, y, ts, heading := float64(data[1])*7e4, float64(data[1])*2e4, float64(1000), 0.0
	if data[1] >= 128 {
		x, y = edgeX-float64(data[1]&31), edgeY-float64(data[1]&31)
		if data[1]&64 != 0 {
			x = -x
		}
		if data[1]&32 != 0 {
			y = -y
		}
	}
	armed := false
	emit := func(kp core.Point, ok bool) {
		if ok {
			run.keys = append(run.keys, kp)
		}
	}
	push := func(p core.Point) {
		if !armed && len(run.keys) > 0 {
			last := run.keys[len(run.keys)-1]
			if kp, ok := c.Push(last); !ok || !kp.Equal(last) {
				t.Fatalf("re-armed with %v, its Push returned %v, %v", last, kp, ok)
			}
		}
		armed = true
		run.fixes = append(run.fixes, p)
		emit(c.Push(p))
	}
	move := func(dx, dy float64) {
		x, y, ts = fold(x+dx, edgeX), fold(y+dy, edgeY), ts+1
		push(core.Point{X: math.Round(x*100) / 100, Y: math.Round(y*100) / 100, T: ts})
	}
	cut := func() {
		if armed {
			emit(c.Flush())
			armed = false
		}
	}
	for _, b := range data[2:] {
		size := float64(b >> 3)
		switch b & 7 {
		case 0: // straight on
			move(math.Cos(heading)*(1+3*size), math.Sin(heading)*(1+3*size))
		case 1: // turn and go
			heading += size * math.Pi / 16
			move(math.Cos(heading)*20, math.Sin(heading)*20)
		case 2: // double back
			heading += math.Pi
			move(math.Cos(heading)*size, math.Sin(heading)*size)
		case 3: // near-stationary jitter
			move((math.Mod(size, 5)-2)*0.3, (math.Mod(size*7, 5)-2)*0.3)
		case 4: // the last fix again, exactly
			if len(run.fixes) > 0 {
				push(run.fixes[len(run.fixes)-1])
			}
		case 5: // a flush cut
			cut()
		case 6: // a far jump
			move(math.Cos(size)*200, math.Sin(size)*200)
		case 7: // a one-fix run
			cut()
			move(size*0.7, -size*0.4)
			cut()
		}
	}
	cut()
	return run
}

// The plane's extent in metres: the longitude and latitude the wire carries
// at trajstore.MetersPerDegree.
const edgeX, edgeY = 180 * trajstore.MetersPerDegree, 90 * trajstore.MetersPerDegree

// fold reflects v back into [−edge, edge] at the edge it passed.
func fold(v, edge float64) float64 {
	if math.Abs(v) > edge {
		return math.Copysign(2*edge-math.Abs(v), v)
	}
	return v
}

// checkSnapped holds a stream's keys to the registered "fbqs"'s contract:
// Deviation within ε, key times strictly increasing, a run's first key its
// fix, every later key on the grid anchored at the key before it, or the
// fix it replaced, within √2·s of that fix, and every key in the plane the
// wire stores where every fix is (trajstore.InPlane).
func checkSnapped(t *testing.T, run snapRun) {
	t.Helper()
	if len(run.fixes) == 0 {
		return
	}
	if worst, err := Deviation("fbqs", run.fixes, run.keys); err != nil || worst > run.tol*(1+1e-9) {
		t.Fatalf("tol %g: worst deviation %v (%v) over %d fixes, %d keys", run.tol, worst, err, len(run.fixes), len(run.keys))
	}
	if !run.keys[0].Equal(run.fixes[0]) {
		t.Fatalf("first key %v, first fix %v", run.keys[0], run.fixes[0])
	}
	fixAt := map[float64]core.Point{}
	for _, p := range run.fixes {
		fixAt[p.T] = p
		if !trajstore.InPlane(p) {
			t.Fatalf("fix %v off the plane", p)
		}
	}
	for i, k := range run.keys {
		if !trajstore.InPlane(k) {
			t.Fatalf("key %d %v off the plane the wire stores", i, k)
		}
	}
	s := core.GridStep(run.tol)
	for i := 1; i < len(run.keys); i++ {
		prev, k := run.keys[i-1], run.keys[i]
		if k.T <= prev.T {
			t.Fatalf("key %d at t=%v after one at t=%v", i, k.T, prev.T)
		}
		fix, ok := fixAt[k.T]
		if !ok {
			t.Fatalf("key %d at t=%v replaced no fix", i, k.T)
		}
		onGrid := func(d float64) bool { return math.Abs(d/s-math.Round(d/s)) < 1e-6 }
		if !k.Equal(fix) && !(onGrid(k.X-prev.X) && onGrid(k.Y-prev.Y)) {
			t.Fatalf("key %d %v is neither its fix %v nor on the %g m grid of the key before it %v", i, k, fix, s, prev)
		}
		if d := k.Vec().Dist(fix.Vec()); d > math.Sqrt2*s*(1+1e-9) {
			t.Fatalf("key %d lies %g m from its fix, past √2·%g", i, d, s)
		}
	}
}

// TestSnappedProperty runs checkSnapped over 400 random streams of up to 300
// moves, and requires the snap to have moved most keys off their fixes.
func TestSnappedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	keys, moved := 0, 0
	for i := 0; i < 400; i++ {
		data := make([]byte, 2+rng.Intn(300))
		rng.Read(data)
		run := snapStream(t, data)
		checkSnapped(t, run)
		fixAt := map[float64]core.Point{}
		for _, p := range run.fixes {
			fixAt[p.T] = p
		}
		for _, k := range run.keys[min(1, len(run.keys)):] {
			keys++
			if !k.Equal(fixAt[k.T]) {
				moved++
			}
		}
	}
	if moved*2 < keys {
		t.Fatalf("%d of %d keys snapped", moved, keys)
	}
}

// FuzzSnappedBound holds the registered "fbqs", the compressor that snaps,
// to checkSnapped's contract on the streams snapStream spells: random,
// doubling-back and near-stationary moves, repeated fixes, one-fix runs and
// flush cuts, each followed by the engine's re-arm.
func FuzzSnappedBound(f *testing.F) {
	f.Add([]byte{2, 9, 0x11, 0x21, 0x09, 0x80, 0x19, 0x41, 0x05, 0x0c, 0x29})
	f.Add([]byte{1, 250, 0x02, 0x12, 0x22, 0x02, 0x03, 0x03, 0x0b, 0x04, 0x05, 0x04, 0x13, 0x07, 0x07})
	f.Add([]byte{3, 0, 0x06, 0x0e, 0x16, 0x1e, 0x05, 0x05, 0x07, 0x01, 0x04, 0x04})
	f.Add([]byte{2, 0xc0, 0x00, 0x00, 0x08, 0x01, 0x00, 0x06, 0x0e, 0x00, 0x00, 0x05, 0x00})
	f.Add([]byte{0, 0xa5, 0x06, 0x00, 0x00, 0x16, 0x00, 0x01, 0x11, 0x00, 0x00})
	f.Add([]byte{0, 128, 0x03, 0x0b, 0x13, 0x1b, 0x23, 0x2b, 0x33, 0x3b, 0x43, 0x4b, 0x05, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapped(t, snapStream(t, data))
	})
}
