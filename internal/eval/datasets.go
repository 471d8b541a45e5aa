// Package eval regenerates every table and figure of the paper's
// evaluation (Section VI) against the generated stand-in datasets, plus
// the ablation studies listed in DESIGN.md. Each experiment is a function
// returning a typed result with a text rendering, so the cmd/bqsbench tool
// and the benchmark suite share one implementation.
package eval

import (
	"fmt"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/synth"
)

// Dataset is an evaluation workload: observed points plus ground truth.
type Dataset struct {
	Name    string
	Samples []synth.Sample
	Points  []core.Point
}

// Scale selects dataset sizes: ScaleFull approximates the paper's volumes
// (≈ 100k bat samples from five nodes, tens of thousands of vehicle
// samples, the 30,000-point synthetic walk); ScaleQuick shrinks everything
// for unit tests.
type Scale int

const (
	// ScaleFull approximates the paper's dataset sizes.
	ScaleFull Scale = iota
	// ScaleQuick is a fast subset for tests.
	ScaleQuick
)

// Suite holds the canonical datasets and shared evaluation parameters.
type Suite struct {
	Bat      Dataset
	Vehicle  Dataset
	Walk     Dataset
	Combined Dataset // bat + vehicle merged into one stream (Table III)
	BufSize  int     // windowed baselines' buffer (the paper uses 32)
}

// NewSuite generates a fresh suite at the given scale.
func NewSuite(scale Scale) *Suite {
	batNodes, batDays := 5, 40
	vehDays := 28
	walkN := 30000
	if scale == ScaleQuick {
		batNodes, batDays = 2, 4
		vehDays = 3
		walkN = 4000
	}

	var batSamples []synth.Sample
	tOffset := 0.0
	for node := 0; node < batNodes; node++ {
		cfg := synth.DefaultBatConfig(1000 + int64(node))
		cfg.Days = batDays
		tr := synth.Bat(cfg)
		for _, s := range tr.Samples {
			s.P.T += tOffset
			batSamples = append(batSamples, s)
		}
		if n := len(tr.Samples); n > 0 {
			tOffset = batSamples[len(batSamples)-1].P.T + 3600
		}
	}
	bat := makeDataset("bat", batSamples)

	vcfg := synth.DefaultVehicleConfig(2000)
	vcfg.Days = vehDays
	vehicle := makeDataset("vehicle", synth.Vehicle(vcfg).Samples)

	wcfg := synth.DefaultWalkConfig(3000)
	wcfg.N = walkN
	walk := makeDataset("walk", synth.Walk(wcfg).Samples)

	// Combined stream: bat then vehicle with continuous timestamps, as the
	// paper does ("we combine all the data points into a single data
	// stream"). The run-time experiment uses 87,704 points of it.
	combined := make([]synth.Sample, 0, len(bat.Samples)+len(vehicle.Samples))
	combined = append(combined, bat.Samples...)
	off := 0.0
	if len(bat.Samples) > 0 {
		off = bat.Samples[len(bat.Samples)-1].P.T + 3600
	}
	for _, s := range vehicle.Samples {
		s.P.T += off
		combined = append(combined, s)
	}
	return &Suite{
		Bat:      bat,
		Vehicle:  vehicle,
		Walk:     walk,
		Combined: makeDataset("combined", combined),
		BufSize:  32,
	}
}

func makeDataset(name string, samples []synth.Sample) Dataset {
	pts := make([]core.Point, len(samples))
	for i, s := range samples {
		pts[i] = s.P
	}
	return Dataset{Name: name, Samples: samples, Points: pts}
}

// Describe summarizes the suite's datasets.
func (s *Suite) Describe() string {
	return fmt.Sprintf(
		"datasets: bat=%d pts, vehicle=%d pts, walk=%d pts, combined=%d pts (buffer=%d)",
		len(s.Bat.Points), len(s.Vehicle.Points), len(s.Walk.Points),
		len(s.Combined.Points), s.BufSize)
}

// BatTolerances is the paper's bat-data tolerance sweep (Figures 6a, 7a).
func BatTolerances() []float64 { return []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20} }

// VehicleTolerances is the vehicle-data sweep (Figures 6b, 7b).
func VehicleTolerances() []float64 { return []float64{5, 10, 15, 20, 25, 30, 35, 40, 45, 50} }
