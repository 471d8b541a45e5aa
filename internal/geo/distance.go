package geo

import "math"

// EarthRadius is the mean Earth radius in metres (IUGG).
const EarthRadius = 6371008.8

// degToRad converts degrees to radians; hoisted to package level so every
// conversion site shares the one constant.
const degToRad = math.Pi / 180

// Haversine returns the great-circle distance in metres between two WGS-84
// coordinates. It is used for travel-distance bookkeeping, not for the
// compression metric (which lives in the projected plane).
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	s1 := math.Sin((lat2 - lat1) * degToRad / 2)
	s2 := math.Sin((lon2 - lon1) * degToRad / 2)
	h := s1*s1 + math.Cos(lat1*degToRad)*math.Cos(lat2*degToRad)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// MetersPerDegree returns the approximate metres per degree of latitude and
// longitude at a given latitude; handy for quick synthetic-data scaling.
func MetersPerDegree(lat float64) (perLatDeg, perLonDeg float64) {
	perLatDeg = 111132.92 - 559.82*math.Cos(2*lat*degToRad) + 1.175*math.Cos(4*lat*degToRad)
	perLonDeg = 111412.84*math.Cos(lat*degToRad) - 93.5*math.Cos(3*lat*degToRad)
	return perLatDeg, perLonDeg
}
