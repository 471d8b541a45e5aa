// Command bqsgen generates evaluation traces as CSV (x,y,t per line,
// metres and seconds).
//
// Usage:
//
//	bqsgen -model bat|vehicle|walk [-seed N] [-days N] [-n N] [-o file]
//
// An unknown -model exits 2 naming the models, before anything is generated.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/synth"
)

// models names what -model accepts.
const models = "bat, vehicle, walk"

func main() {
	model := flag.String("model", "walk", "trace model: "+models)
	seed := flag.Int64("seed", 1, "random seed")
	days := flag.Int("days", 14, "tracking days (bat, vehicle)")
	n := flag.Int("n", 30000, "sample count (walk)")
	out := flag.String("o", "-", "output file (- for stdout)")
	flag.Parse()

	var tr synth.Trace
	switch *model {
	case "bat":
		cfg := synth.DefaultBatConfig(*seed)
		cfg.Days = *days
		tr = synth.Bat(cfg)
	case "vehicle":
		cfg := synth.DefaultVehicleConfig(*seed)
		cfg.Days = *days
		tr = synth.Vehicle(cfg)
	case "walk":
		cfg := synth.DefaultWalkConfig(*seed)
		cfg.N = *n
		tr = synth.Walk(cfg)
	default:
		fmt.Fprintf(os.Stderr, "bqsgen: unknown model %q (want %s)\n", *model, models)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bqsgen:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := stream.WriteCSV(w, tr.Points()); err != nil {
		fmt.Fprintln(os.Stderr, "bqsgen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bqsgen: %s, %d samples, moving fraction %.2f, path %.1f km\n",
		tr.Name, tr.Len(), tr.MovingFraction(), tr.PathLength()/1000)
}
