// Command bqsrecover inspects and maintains a segment-log directory
// written by the durable ingestion engine (bqs.OpenDurableEngine, a
// bqsd tenant directory, or the one `bqsbench -serve -persist dir`
// leaves in dir/bench): it lists devices, decodes trajectories, and
// runs the merge/ageing compactor.
//
// Usage:
//
//	bqsrecover -dir logdir                    # summary + per-device listing
//	bqsrecover -dir logdir -device ID         # decode one device's trajectories
//	bqsrecover -dir logdir -device ID -t0 N -t1 M   # restrict to a time window
//	bqsrecover -dir logdir -device ID -csv    # lat,lon,t CSV on stdout
//	bqsrecover -dir logdir -window minLon,minLat,maxLon,maxLat [-t0 N -t1 M]
//	                                          # spatio-temporal query, all devices
//	bqsrecover -dir logdir -repair            # truncate a crash-torn tail in place
//	bqsrecover -dir logdir -compact [-merge-chunks=false]
//	          [-age 24h -coarse-tol 50]       # seal the last segment, merge + age all
//
// -window decodes every record (any device, log order) with a
// trajectory segment entering the given degree rectangle during the
// [-t0, -t1] range, pruning on the segment and record bounds the open
// read; a pruning summary goes to stderr. -csv emits device,lat,lon,t rows.
//
// -dir is a log root as OpenDurableEngine and bqsd write it: a SHARDS
// file plus shard-NNN/ subdirectories. Roots are never re-sharded by
// this tool, and a root in the older single-log layout (MANIFEST and
// seg-*.log directly in it) is refused — see DESIGN.md for migrating
// data that old.
//
// By default the directory is opened READ-ONLY: nothing on disk is
// touched, no lock is taken, and a crash-torn tail is reported but left
// in place — safe to point at a directory a live engine owns. -repair
// performs the engine's own recovery (truncating the torn tail) and
// -compact seals the last segment and rewrites them all; both take the directory's exclusive
// write lock and refuse to run while another process holds it.
//
// Timestamps are the wire format's uint32 seconds. The exit status is
// non-zero if the directory is missing or cannot be interpreted as a
// segment log.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func main() {
	dir := flag.String("dir", "", "segment-log directory (required)")
	device := flag.String("device", "", "decode this device's trajectories (default: list all devices)")
	window := flag.String("window", "", "spatio-temporal query across all devices: minLon,minLat,maxLon,maxLat in degrees (combined with -t0/-t1)")
	t0 := flag.Uint64("t0", 0, "window start, seconds")
	t1 := flag.Uint64("t1", math.MaxUint32, "window end, seconds")
	csv := flag.Bool("csv", false, "with -device or -window: emit CSV instead of a listing")
	repair := flag.Bool("repair", false, "open read-write: truncate any crash-torn tail in place (takes the directory lock)")
	compact := flag.Bool("compact", false, "seal the last segment and compact the whole log (implies -repair)")
	mergeChunks := flag.Bool("merge-chunks", true, "with -compact: merge consecutive chunked records of a device")
	age := flag.Duration("age", 0, "with -compact: re-compress records older than this at -coarse-tol (0 with a tolerance set ages everything)")
	coarseTol := flag.Float64("coarse-tol", 0, "with -compact: ageing tolerance in metres (0 disables ageing)")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "bqsrecover: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	if *t0 > math.MaxUint32 || *t1 > math.MaxUint32 || *t0 > *t1 {
		fail(fmt.Errorf("invalid time window [%d, %d]", *t0, *t1))
	}

	// Open would create a missing directory (it is the engine's write
	// path); a diagnostic tool pointed at a typo'd path must error
	// instead of conjuring an empty log and reporting zero records.
	if fi, err := os.Stat(*dir); err != nil {
		fail(err)
	} else if !fi.IsDir() {
		fail(fmt.Errorf("%s is not a directory", *dir))
	}

	writable := *repair || *compact
	lg, err := segmentlog.OpenSharded(*dir, 0, segmentlog.Options{ReadOnly: !writable})
	if err != nil {
		fail(err)
	}
	defer lg.Close()

	s := lg.Stats()
	fmt.Fprintf(os.Stderr, "bqsrecover: %d segment file(s), %d records, %d devices, %d bytes",
		s.Segments, s.Records, s.Devices, s.Bytes)
	if s.Truncated > 0 {
		if writable {
			fmt.Fprintf(os.Stderr, " (recovered: dropped %d torn tail bytes)", s.Truncated)
		} else {
			fmt.Fprintf(os.Stderr, " (detected %d torn tail bytes; rerun with -repair to truncate)", s.Truncated)
		}
	}
	fmt.Fprintln(os.Stderr)

	if *compact {
		err := lg.Seal() // as a daemon's drain does: the pass reaches every record
		if err != nil {
			fail(err)
		}
		res, err := lg.Compact(segmentlog.CompactionPolicy{MinAge: *age, CoarseTolerance: *coarseTol, MergeChunks: *mergeChunks})
		if err != nil {
			fail(err)
		}
		reportCompaction(res)
		return
	}

	if *window != "" {
		if *device != "" {
			fail(fmt.Errorf("-window queries all devices; drop -device"))
		}
		minX, minY, maxX, maxY, err := parseWindow(*window)
		if err != nil {
			fail(err)
		}
		recs, ws, err := lg.QueryWindowStats(minX, minY, maxX, maxY, uint32(*t0), uint32(*t1))
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "bqsrecover: window [%g, %g]×[%g, %g] t[%d, %d]: %d/%d segments pruned, %d records decoded (of %d indexed), %d matched\n",
			minX, maxX, minY, maxY, *t0, *t1,
			ws.SegmentsPruned, ws.Segments, ws.RecordsDecoded, ws.RecordsIndexed, ws.RecordsMatched)
		for i, rec := range recs {
			if *csv {
				for _, k := range rec.Keys {
					fmt.Printf("%s,%.7f,%.7f,%d\n", rec.Device, k.Lat, k.Lon, k.T)
				}
				continue
			}
			fmt.Printf("%s trajectory %d: %d key points, time [%d, %d]\n", rec.Device, i, len(rec.Keys), rec.T0, rec.T1)
			for _, k := range rec.Keys {
				fmt.Printf("  %.7f,%.7f,%d\n", k.Lat, k.Lon, k.T)
			}
		}
		if len(recs) == 0 {
			fmt.Fprintln(os.Stderr, "bqsrecover: no records in the window")
			os.Exit(1)
		}
		return
	}

	if *device == "" {
		for _, dev := range lg.Devices() {
			n, lo, hi, _ := lg.DeviceSpan(dev)
			fmt.Printf("%s\t%d records\ttime [%d, %d]\n", dev, n, lo, hi)
		}
		return
	}

	recs, err := lg.Query(*device, uint32(*t0), uint32(*t1))
	if err != nil {
		fail(err)
	}
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "bqsrecover: no records for %q in [%d, %d]\n", *device, *t0, *t1)
		os.Exit(1)
	}
	for i, rec := range recs {
		if *csv {
			for _, k := range rec.Keys {
				fmt.Printf("%.7f,%.7f,%d\n", k.Lat, k.Lon, k.T)
			}
			continue
		}
		fmt.Printf("trajectory %d: %d key points, time [%d, %d]\n", i, len(rec.Keys), rec.T0, rec.T1)
		for _, k := range rec.Keys {
			fmt.Printf("  %.7f,%.7f,%d\n", k.Lat, k.Lon, k.T)
		}
	}
}

// reportCompaction prints a one-pass compaction summary.
func reportCompaction(res segmentlog.CompactionResult) {
	if res.Gen == 0 {
		if res.SegmentsIn == 0 {
			fmt.Println("compaction: nothing to do (no sealed segments)")
		} else {
			fmt.Printf("compaction: already compact (%d records, %d bytes unchanged)\n",
				res.RecordsIn, res.BytesIn)
		}
		return
	}
	saved := res.BytesIn - res.BytesOut
	pct := 0.0
	if res.BytesIn > 0 {
		pct = 100 * float64(saved) / float64(res.BytesIn)
	}
	fmt.Printf("compaction: %d → %d records, %d → %d bytes (saved %d, %.1f%%), %d merged, %d deduped, %d aged\n",
		res.RecordsIn, res.RecordsOut, res.BytesIn, res.BytesOut, saved, pct,
		res.Merged, res.Deduped, res.Aged)
}

// parseWindow decodes "-window minLon,minLat,maxLon,maxLat".
func parseWindow(s string) (minX, minY, maxX, maxY float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("-window wants minLon,minLat,maxLon,maxLat, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("-window field %d: %v", i, err)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bqsrecover:", err)
	os.Exit(1)
}
