package geo

import (
	"math"
	"math/rand"
	"testing"
)

// Reference values computed with established UTM implementations.
func TestToUTMKnownPoints(t *testing.T) {
	cases := []struct {
		name     string
		lat, lon float64
		zone     int
		south    bool
		easting  float64
		northing float64
		tol      float64
	}{
		// Brisbane (flying-fox country, the paper's deployment region).
		{"brisbane", -27.4698, 153.0251, 56, true, 502479, 6961528, 2},
		// CN Tower, Toronto (reference vector from the UTM literature).
		{"cntower", 43.642566, -79.387139, 17, false, 630084, 4833438, 2},
		// Equator / central meridian of zone 31.
		{"origin31", 0, 3, 31, false, 500000, 0, 0.5},
	}
	for _, c := range cases {
		u, err := ToUTM(c.lat, c.lon)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if u.Zone != c.zone || u.South != c.south {
			t.Errorf("%s: zone = %d south=%v, want %d %v", c.name, u.Zone, u.South, c.zone, c.south)
		}
		if math.Abs(u.Easting-c.easting) > c.tol {
			t.Errorf("%s: easting = %.1f, want %.1f±%.1f", c.name, u.Easting, c.easting, c.tol)
		}
		if math.Abs(u.Northing-c.northing) > c.tol {
			t.Errorf("%s: northing = %.1f, want %.1f±%.1f", c.name, u.Northing, c.northing, c.tol)
		}
	}
}

func TestUTMRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		lat := rng.Float64()*160 - 80 // stay within the UTM domain
		lon := rng.Float64()*360 - 180
		u, err := ToUTM(lat, lon)
		if err != nil {
			t.Fatalf("ToUTM(%v,%v): %v", lat, lon, err)
		}
		lat2, lon2, err := FromUTM(u)
		if err != nil {
			t.Fatalf("FromUTM(%v): %v", u, err)
		}
		if math.Abs(lat2-lat) > 1e-7 {
			t.Fatalf("lat round trip %v -> %v", lat, lat2)
		}
		dLon := math.Abs(lon2 - lon)
		if dLon > 180 {
			dLon = 360 - dLon
		}
		if dLon > 1e-7 {
			t.Fatalf("lon round trip %v -> %v", lon, lon2)
		}
	}
}

func TestUTMLocalDistancePreserved(t *testing.T) {
	// Within a zone, UTM distances should match great-circle distances to
	// within the combined slack of the 0.9996 scale factor and the
	// sphere-vs-ellipsoid difference (< 0.7% in total).
	lat, lon := -27.4698, 153.0251
	for _, d := range []struct{ dLat, dLon float64 }{
		{0.01, 0}, {0, 0.01}, {0.005, 0.005}, {-0.02, 0.01},
	} {
		u1, _ := ToUTM(lat, lon)
		u2, _ := ToUTM(lat+d.dLat, lon+d.dLon)
		utmDist := math.Hypot(u2.Easting-u1.Easting, u2.Northing-u1.Northing)
		hav := Haversine(lat, lon, lat+d.dLat, lon+d.dLon)
		if rel := math.Abs(utmDist-hav) / hav; rel > 7e-3 {
			t.Errorf("distance mismatch: utm=%v hav=%v rel=%v", utmDist, hav, rel)
		}
	}
}

func TestUTMMeridianArc(t *testing.T) {
	// On the central meridian the northing is k0 times the meridian arc
	// length; the WGS-84 arc from the equator to 45°N is 4,984,944.4 m.
	u, err := ToUTM(45, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9996 * 4984944.4
	if math.Abs(u.Northing-want) > 1.0 {
		t.Errorf("northing at 45N = %.1f, want %.1f", u.Northing, want)
	}
	if math.Abs(u.Easting-500000) > 1e-6 {
		t.Errorf("easting on central meridian = %.6f, want 500000", u.Easting)
	}
}

func TestUTMScaleFactorOnCentralMeridian(t *testing.T) {
	// Small east-west displacements across the central meridian must be
	// scaled by k0 = 0.9996 within a few ppm.
	lat := -27.0
	u1, _ := ToUTM(lat, 152.999)
	u2, _ := ToUTM(lat, 153.001)
	utmDist := math.Hypot(u2.Easting-u1.Easting, u2.Northing-u1.Northing)
	// Ellipsoidal parallel arc: 0.002° × cos(lat) × normal curvature radius.
	e2 := Flattening * (2 - Flattening)
	sin := math.Sin(lat * math.Pi / 180)
	nu := SemiMajorAxis / math.Sqrt(1-e2*sin*sin)
	arc := 0.002 * math.Pi / 180 * nu * math.Cos(lat*math.Pi/180)
	if rel := math.Abs(utmDist-0.9996*arc) / arc; rel > 1e-5 {
		t.Errorf("scale factor off: utm=%v arc=%v rel=%v", utmDist, arc, rel)
	}
}

func TestToUTMZoneConsistency(t *testing.T) {
	// A point near a zone boundary projected into the neighbouring zone must
	// invert to the same lat/lon.
	lat, lon := -27.5, 150.01 // zone 56 starts at 150E
	u, err := ToUTMZone(lat, lon, 55)
	if err != nil {
		t.Fatal(err)
	}
	if u.Zone != 55 {
		t.Fatalf("zone = %d, want 55", u.Zone)
	}
	lat2, lon2, err := FromUTM(u)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat2-lat) > 1e-6 || math.Abs(lon2-lon) > 1e-6 {
		t.Errorf("cross-zone round trip: (%v,%v) -> (%v,%v)", lat, lon, lat2, lon2)
	}
}

func TestToUTMErrors(t *testing.T) {
	if _, err := ToUTM(85.1, 0); err == nil {
		t.Error("latitude beyond UTM domain accepted")
	}
	if _, err := ToUTM(math.NaN(), 0); err == nil {
		t.Error("NaN latitude accepted")
	}
	if _, err := ToUTM(0, 181); err == nil {
		t.Error("longitude beyond domain accepted")
	}
	if _, err := ToUTMZone(0, 0, 0); err == nil {
		t.Error("zone 0 accepted")
	}
	if _, err := ToUTMZone(0, 0, 61); err == nil {
		t.Error("zone 61 accepted")
	}
	if _, _, err := FromUTM(UTM{Zone: 0}); err == nil {
		t.Error("FromUTM zone 0 accepted")
	}
}

func TestZoneFor(t *testing.T) {
	cases := []struct {
		lon  float64
		want int
	}{
		{-180, 1}, {-174.0001, 1}, {-174, 2}, {0, 31}, {3, 31}, {6, 32},
		{153.02, 56}, {179.99, 60}, {180, 1}, // +180° wraps into zone 1

	}
	for _, c := range cases {
		if got := ZoneFor(c.lon); got != c.want {
			t.Errorf("ZoneFor(%v) = %d, want %d", c.lon, got, c.want)
		}
	}
}

func TestCentralMeridian(t *testing.T) {
	if got := CentralMeridian(31); got != 3 {
		t.Errorf("CentralMeridian(31) = %v, want 3", got)
	}
	if got := CentralMeridian(56); got != 153 {
		t.Errorf("CentralMeridian(56) = %v, want 153", got)
	}
}

func TestUTMString(t *testing.T) {
	u := UTM{Easting: 1234.56, Northing: 7890.12, Zone: 56, South: true}
	if got := u.String(); got != "zone 56S 1234.6E 7890.1N" {
		t.Errorf("String = %q", got)
	}
}

func TestHaversineKnown(t *testing.T) {
	// Brisbane to Sydney is about 733 km great-circle.
	d := Haversine(-27.4698, 153.0251, -33.8568, 151.2153)
	if d < 720e3 || d > 745e3 {
		t.Errorf("Brisbane-Sydney = %v m", d)
	}
	if d := Haversine(10, 20, 10, 20); d != 0 {
		t.Errorf("identical points = %v", d)
	}
	// One degree of latitude ≈ 111 km.
	d = Haversine(0, 0, 1, 0)
	if math.Abs(d-111195) > 200 {
		t.Errorf("1° latitude = %v", d)
	}
}

func TestMetersPerDegree(t *testing.T) {
	perLat, perLon := MetersPerDegree(0)
	if math.Abs(perLat-110574) > 100 {
		t.Errorf("equator lat scale = %v", perLat)
	}
	if math.Abs(perLon-111320) > 100 {
		t.Errorf("equator lon scale = %v", perLon)
	}
	_, perLon60 := MetersPerDegree(60)
	if math.Abs(perLon60-55800) > 300 {
		t.Errorf("60° lon scale = %v", perLon60)
	}
}
