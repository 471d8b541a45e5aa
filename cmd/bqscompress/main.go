// Command bqscompress compresses a CSV trace (x,y,t per line) with a
// compressor of the internal/stream registry — the names bqsd's
// -compressor takes, built the same way — or with Douglas-Peucker, the
// offline baseline, and reports the compression rate, the worst deviation
// under the distance that name bounds (stream.Deviation; the line distance
// for dp), and the run time.
//
// Usage:
//
//	bqscompress [-algo bdp|bgd|bqs|dr|fbqs|timesensitive|dp] [-d metres]
//	            [-o file] [input.csv]
//
// An unknown -algo exits 2 naming the algorithms, before any input is read.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
)

func main() {
	algos := append(stream.Names(), "dp")
	algo := flag.String("algo", "fbqs", "algorithm: "+strings.Join(algos, ", "))
	tol := flag.Float64("d", 10, "deviation tolerance in metres")
	out := flag.String("o", "-", "output file for compressed points (- for stdout)")
	flag.Parse()

	if !slices.Contains(algos, *algo) {
		fmt.Fprintf(os.Stderr, "bqscompress: unknown algorithm %q (want %s)\n", *algo, strings.Join(algos, ", "))
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	pts, err := stream.ReadCSV(in)
	if err != nil {
		fail(err)
	}
	if len(pts) == 0 {
		fail(fmt.Errorf("no input points"))
	}

	start := time.Now()
	var c stream.Compressor // nil for dp
	var keys []core.Point
	if *algo == "dp" {
		keys, err = baseline.DouglasPeucker(pts, *tol, core.MetricLine)
	} else if c, err = stream.New(*algo, *tol); err == nil {
		keys = stream.Compress(c, pts)
	}
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := stream.WriteCSV(w, keys); err != nil {
		fail(err)
	}

	worst := core.Deviation(pts, keys, core.MetricLine.Dist)
	if *algo != "dp" {
		worst, _ = stream.Deviation(*algo, pts, keys) // the name is registered: no error
	}
	fmt.Fprintf(os.Stderr,
		"%s: %d → %d points (rate %.2f%%), worst deviation %.2f m (d = %.1f m), %.1f ms\n",
		*algo, len(pts), len(keys), 100*float64(len(keys))/float64(len(pts)),
		worst, *tol, float64(elapsed.Microseconds())/1000)
	if s, ok := c.(interface{ Stats() core.Stats }); ok {
		fmt.Fprintf(os.Stderr, "pruning power: %.3f\n", s.Stats().PruningPower())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bqscompress:", err)
	os.Exit(1)
}
