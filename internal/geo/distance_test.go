package geo

import (
	"math"
	"testing"
)

func TestHaversineKnownDistances(t *testing.T) {
	// One degree of longitude on the equator ≈ 111.19 km for the mean
	// sphere radius.
	if d := Haversine(0, 0, 0, 1); math.Abs(d-111195) > 10 {
		t.Errorf("equator degree = %v m", d)
	}
	// Coincident points.
	if d := Haversine(47.1, 8.5, 47.1, 8.5); d != 0 {
		t.Errorf("zero distance = %v", d)
	}
	// Antipodal points ≈ half the circumference.
	want := math.Pi * EarthRadius
	if d := Haversine(0, 0, 0, 180); math.Abs(d-want) > 1 {
		t.Errorf("antipodal = %v, want %v", d, want)
	}
	// Symmetry.
	if d1, d2 := Haversine(12, 34, -56, 78), Haversine(-56, 78, 12, 34); d1 != d2 {
		t.Errorf("asymmetric: %v vs %v", d1, d2)
	}
}
