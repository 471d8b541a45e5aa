package synth

import (
	"math/rand"

	"github.com/trajcomp/bqs/internal/core"
)

// StreetGrid is a cut-heavy track of n fixes: 60 m steps along a street
// grid, turning left or right every 2-4 fixes, a fix every 1-5 s from
// t = 1000, starting 500·seed m east of the origin so that devices given
// different seeds drive apart.
func StreetGrid(seed int64, n int) []core.Point {
	rng := rand.New(rand.NewSource(seed))
	x, y, t, dir, leg := float64(seed)*500, 0.0, 1000.0, 0, 0
	pts := make([]core.Point, n)
	for i := range pts {
		if leg == 0 {
			dir, leg = (dir+1+2*rng.Intn(2))%4, 2+rng.Intn(3)
		}
		x, y = x+60*float64([4]int{1, 0, -1, 0}[dir]), y+60*float64([4]int{0, 1, 0, -1}[dir])
		t += float64(1 + rng.Intn(5))
		leg--
		pts[i] = core.Point{X: x, Y: y, T: t}
	}
	return pts
}
