// Command bqscompress compresses a CSV trace (x,y,t per line) with any of
// the implemented algorithms and reports the compression rate, the worst
// observed deviation, and the run time.
//
// Usage:
//
//	bqscompress -algo bqs|fbqs|bdp|bgd|dp [-d metres] [-buffer N]
//	            [-metric line|segment] [-o file] [input.csv]
//
// -algo fbqs is the paper's FBQS, which keeps its key points at fixes:
// they equal those of -algo bqs. It is not the registered "fbqs" that bqsd
// runs, which ends its segments on grid joints (core.Config.Snap).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/trajcomp/bqs/internal/baseline"
	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/stream"
)

func main() {
	algo := flag.String("algo", "fbqs", "algorithm: bqs, fbqs (keys at fixes, as bqs; not bqsd's snapped fbqs), bdp, bgd or dp")
	tol := flag.Float64("d", 10, "deviation tolerance in metres")
	buf := flag.Int("buffer", 32, "buffer size for bdp/bgd")
	metricName := flag.String("metric", "line", "deviation metric: line or segment")
	out := flag.String("o", "-", "output file for compressed points (- for stdout)")
	flag.Parse()

	metric := core.MetricLine
	switch *metricName {
	case "line":
	case "segment":
		metric = core.MetricSegment
	default:
		fail(fmt.Errorf("unknown metric %q", *metricName))
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
	var keys []core.Point
	switch *algo {
	case "bqs", "fbqs":
		mode := core.ModeExact
		if *algo == "fbqs" {
			mode = core.ModeFast
		}
		c, err := core.NewCompressor(core.Config{
			Tolerance: *tol, Mode: mode, Metric: metric, RotationWarmup: -1,
		})
		if err != nil {
			fail(err)
		}
		keys = stream.Compress(c, pts)
		defer func() {
			fmt.Fprintf(os.Stderr, "pruning power: %.3f\n", c.Stats().PruningPower())
		}()
	case "bdp":
		c, err := baseline.NewBufferedDP(*tol, *buf, metric)
		if err != nil {
			fail(err)
		}
		keys = stream.Compress(stream.Adapt(c), pts)
	case "bgd":
		c, err := baseline.NewBufferedGreedy(*tol, *buf, metric)
		if err != nil {
			fail(err)
		}
		keys = stream.Compress(c, pts)
	case "dp":
		keys, err = baseline.DouglasPeucker(pts, *tol, metric)
		if err != nil {
			fail(err)
		}
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
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

	worst := core.Deviation(pts, keys, metric.Dist)
	fmt.Fprintf(os.Stderr,
		"%s: %d → %d points (rate %.2f%%), worst deviation %.2f m (d = %.1f m), %.1f ms\n",
		*algo, len(pts), len(keys), 100*float64(len(keys))/float64(len(pts)),
		worst, *tol, float64(elapsed.Microseconds())/1000)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bqscompress:", err)
	os.Exit(1)
}
