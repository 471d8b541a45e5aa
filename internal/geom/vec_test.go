package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	a := V(3, 4)
	b := V(-1, 2)
	if got := a.Add(b); got != V(2, 6) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := a.Sub(b); got != V(4, 2) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := a.Scale(2); got != V(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := a.Dot(b); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := a.Cross(b); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := a.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
	if got := a.Dist(b); !almostEq(got, math.Sqrt(16+4), 1e-12) {
		t.Errorf("Dist = %v", got)
	}
}

func TestVecUnit(t *testing.T) {
	u := V(3, 4).Unit()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	z := V(0, 0).Unit()
	if z != V(0, 0) {
		t.Errorf("Unit of zero = %v, want zero", z)
	}
}

func TestVecAngle(t *testing.T) {
	cases := []struct {
		v    Vec
		want float64
	}{
		{V(1, 0), 0},
		{V(0, 1), math.Pi / 2},
		{V(-1, 0), math.Pi},
		{V(0, -1), 3 * math.Pi / 2},
		{V(1, 1), math.Pi / 4},
		{V(-1, -1), 5 * math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.v.Angle(); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Angle(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVecRotate(t *testing.T) {
	v := V(1, 0).Rotate(math.Pi / 2)
	if !almostEq(v.X, 0, 1e-12) || !almostEq(v.Y, 1, 1e-12) {
		t.Errorf("Rotate(π/2) = %v, want (0,1)", v)
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, phi float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(phi) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(phi, 0) {
			return true
		}
		x = math.Mod(x, 1e6)
		y = math.Mod(y, 1e6)
		v := V(x, y)
		r := v.Rotate(phi)
		return almostEq(v.Norm(), r.Norm(), 1e-6*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v := V(rng.NormFloat64()*1000, rng.NormFloat64()*1000)
		phi := rng.Float64() * 2 * math.Pi
		back := v.Rotate(phi).Rotate(-phi)
		if v.Dist(back) > 1e-9*(1+v.Norm()) {
			t.Fatalf("round trip failed: %v -> %v", v, back)
		}
	}
}

func TestIsFinite(t *testing.T) {
	if !V(1, 2).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if V(math.NaN(), 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if V(0, math.Inf(1)).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

func TestLerp(t *testing.T) {
	a, b := V(0, 0), V(10, 20)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v", got)
	}
	if got := Lerp(a, b, 0.5); got != V(5, 10) {
		t.Errorf("Lerp t=0.5 = %v", got)
	}
}

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
