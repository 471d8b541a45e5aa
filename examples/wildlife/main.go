// Wildlife: the paper's motivating scenario. A Camazotz-class tracker on a
// flying fox acquires one GPS fix per minute during flight and must store
// months of movement in a 50 KB flash budget. This example generates a
// month of flying-fox movement, compresses it on the fly with FBQS, checks
// the memory ceilings the paper claims for the target microcontroller, and
// estimates the operational lifetime with and without compression
// (the Table II story).
package main

import (
	"fmt"
	"log"

	"github.com/trajcomp/bqs"
)

func main() {
	// One tracked bat, 30 days.
	cfg := bqs.DefaultBatConfig(7)
	cfg.Days = 30
	trace := bqs.GenerateBat(cfg)
	points := trace.Points()
	fmt.Printf("generated %d fixes over %d days (%.0f km flown, %.0f%% of fixes while moving)\n",
		len(points), cfg.Days, trace.PathLength()/1000, 100*trace.MovingFraction())

	// The tracker runs FBQS: constant time and space per fix.
	c, err := bqs.NewFBQS(10) // 10 m: "reasonable for animal tracking"
	if err != nil {
		log.Fatal(err)
	}

	var keys []bqs.Point
	maxPoints := 0
	for _, p := range points {
		if kp, ok := c.Push(p); ok {
			keys = append(keys, kp)
		}
		maxPoints = max(maxPoints, c.SignificantPointCount()+c.BufferedPoints())
	}
	if kp, ok := c.Flush(); ok {
		keys = append(keys, kp)
	}

	rate := float64(len(keys)) / float64(len(points))
	fmt.Printf("FBQS kept %d of %d fixes (compression rate %.1f%%)\n",
		len(keys), len(points), 100*rate)
	worst, ok := bqs.ValidateErrorBound(points, keys, 10, bqs.MetricLine)
	fmt.Printf("worst deviation %.2f m (bound 10 m): %v\n", worst, ok)
	fmt.Printf("peak compressor state: %d points held (paper's ceiling: 32); the tangent wedge's 2 unit vectors decide every fix\n", maxPoints)

	// Storage lifetime on the Camazotz budget (Table II).
	model := bqs.DefaultStorageModel()
	raw := model.UncompressedDays()
	days, err := model.OperationalDays(rate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("operational time on the 50 KB GPS budget: %.1f days compressed vs %.1f days raw (%.0f×)\n",
		days, raw, days/raw)

	// Wire cost of what would actually be written to flash.
	geoKeys := make([]bqs.GeoKey, len(keys))
	for i, k := range keys {
		// The tracker stores micro-degree fixes; here the generated trace
		// is already metric, so scale roughly for the size illustration.
		geoKeys[i] = bqs.GeoKey{Lat: k.Y / 111000, Lon: k.X / 111000, T: uint32(k.T)}
	}
	delta, err := bqs.DeltaEncodeTrajectory(geoKeys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flash cost of the month: %.1f KB at the paper's %d B per sample, %.1f KB delta-encoded\n",
		float64(len(keys)*model.SampleBytes)/1024, model.SampleBytes, float64(len(delta))/1024)
}
