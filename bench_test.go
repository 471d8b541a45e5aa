package bqs

import (
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
	"github.com/trajcomp/bqs/internal/eval"
)

// Benchmarks: one (at least) per table and figure of the paper's
// evaluation, on a reduced suite so `go test -bench=.` completes in
// minutes (`cmd/bqsbench` prints the tables themselves at full scale),
// then the N-D cores and the ingestion engine's fleet throughput. Compare
// two trees on one host with `go test -run '^$' -bench . -count N |
// benchstat`; the cores axis is `-cpu 1,2,4`. The end-to-end figures and
// the per-layer ledger come from `go run ./bench`.

var (
	benchOnce  sync.Once
	benchSuite *eval.Suite
)

func suite() *eval.Suite {
	benchOnce.Do(func() { benchSuite = eval.NewSuite(eval.ScaleQuick) })
	return benchSuite
}

func benchAlgo(b *testing.B, algo eval.Algo, ds eval.Dataset, tol float64) {
	b.Helper()
	b.ReportAllocs()
	pts := int64(len(ds.Points))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := eval.Run(algo, ds, tol, suite().BufSize)
		if err != nil {
			b.Fatal(err)
		}
		if !r.BoundOK {
			b.Fatalf("%s violated its bound", algo)
		}
	}
	b.SetBytes(pts * 24) // three float64s per point: throughput context
}

// --- Figure 3: bound tracing overhead.

func BenchmarkFig3BoundsTrace(b *testing.B) {
	ds := suite().Bat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig3(ds, 5, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: pruning power sweeps.

func BenchmarkFig6PruningPowerBat(b *testing.B) {
	benchAlgo(b, eval.AlgoBQS, suite().Bat, 10)
}

func BenchmarkFig6PruningPowerVehicle(b *testing.B) {
	benchAlgo(b, eval.AlgoBQS, suite().Vehicle, 25)
}

// --- Figure 7: compression rate per algorithm, bat data (10 m).

func BenchmarkFig7BatBQS(b *testing.B)  { benchAlgo(b, eval.AlgoBQS, suite().Bat, 10) }
func BenchmarkFig7BatFBQS(b *testing.B) { benchAlgo(b, eval.AlgoFBQS, suite().Bat, 10) }
func BenchmarkFig7BatBDP(b *testing.B)  { benchAlgo(b, eval.AlgoBDP, suite().Bat, 10) }
func BenchmarkFig7BatBGD(b *testing.B)  { benchAlgo(b, eval.AlgoBGD, suite().Bat, 10) }
func BenchmarkFig7BatDP(b *testing.B)   { benchAlgo(b, eval.AlgoDP, suite().Bat, 10) }

// --- Figure 7(b): vehicle data (25 m mid-sweep).

func BenchmarkFig7VehicleBQS(b *testing.B)  { benchAlgo(b, eval.AlgoBQS, suite().Vehicle, 25) }
func BenchmarkFig7VehicleFBQS(b *testing.B) { benchAlgo(b, eval.AlgoFBQS, suite().Vehicle, 25) }
func BenchmarkFig7VehicleBDP(b *testing.B)  { benchAlgo(b, eval.AlgoBDP, suite().Vehicle, 25) }
func BenchmarkFig7VehicleBGD(b *testing.B)  { benchAlgo(b, eval.AlgoBGD, suite().Vehicle, 25) }
func BenchmarkFig7VehicleDP(b *testing.B)   { benchAlgo(b, eval.AlgoDP, suite().Vehicle, 25) }

// --- Figure 8: synthetic data, FBQS vs Dead Reckoning.

func BenchmarkFig8FBQS(b *testing.B) { benchAlgo(b, eval.AlgoFBQS, suite().Walk, 10) }
func BenchmarkFig8DR(b *testing.B)   { benchAlgo(b, eval.AlgoDR, suite().Walk, 10) }

// --- Table I: per-point cost of the core compressors on a long stream.

func benchPerPoint(b *testing.B, mode core.Mode) {
	b.Helper()
	ds := suite().Combined
	cfg := core.Config{Tolerance: 10, Mode: mode, RotationWarmup: -1}
	c, err := core.NewCompressor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ds.Points[i%len(ds.Points)]
		c.Push(p)
	}
}

func BenchmarkTable1PerPointFBQS(b *testing.B) { benchPerPoint(b, core.ModeFast) }
func BenchmarkTable1PerPointBQS(b *testing.B)  { benchPerPoint(b, core.ModeExact) }

func BenchmarkTable1ScalingCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := eval.Table1([]int{1000, 2000, 4000})
		if err != nil {
			b.Fatal(err)
		}
		if r.FBQSExponent > 0.6 {
			b.Fatalf("FBQS exponent %v", r.FBQSExponent)
		}
	}
}

// --- Table II: operational-time estimation pipeline.

func BenchmarkTable2OperationalTime(b *testing.B) {
	s := suite()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table2(s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table III: rate and run time vs. buffer size.

func BenchmarkTable3Buffer32BDP(b *testing.B)  { benchBuffered(b, eval.AlgoBDP, 32) }
func BenchmarkTable3Buffer256BDP(b *testing.B) { benchBuffered(b, eval.AlgoBDP, 256) }
func BenchmarkTable3Buffer32BGD(b *testing.B)  { benchBuffered(b, eval.AlgoBGD, 32) }
func BenchmarkTable3Buffer256BGD(b *testing.B) { benchBuffered(b, eval.AlgoBGD, 256) }
func BenchmarkTable3FBQS(b *testing.B)         { benchAlgo(b, eval.AlgoFBQS, suite().Combined, 10) }

func benchBuffered(b *testing.B, algo eval.Algo, buf int) {
	b.Helper()
	ds := suite().Combined
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Run(algo, ds, 10, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(ds.Points)) * 24)
}

// --- Ablations: rotation and metric effects on the core loop. The rotation
// pair runs BQS: FBQS under the line metric has no rotation to fix.

func benchCore(b *testing.B, cfg core.Config) {
	b.Helper()
	ds := suite().Bat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := core.NewCompressor(cfg)
		if err != nil {
			b.Fatal(err)
		}
		c.CompressBatch(ds.Points)
	}
	b.SetBytes(int64(len(ds.Points)) * 24)
}

func BenchmarkAblationRotationOn(b *testing.B) {
	benchCore(b, core.Config{Tolerance: 10, Mode: core.ModeExact, RotationWarmup: 5})
}

func BenchmarkAblationRotationOff(b *testing.B) {
	benchCore(b, core.Config{Tolerance: 10, Mode: core.ModeExact, RotationWarmup: 0})
}

func BenchmarkAblationSegmentMetric(b *testing.B) {
	benchCore(b, core.Config{Tolerance: 10, Mode: core.ModeFast, RotationWarmup: 5, Metric: core.MetricSegment})
}

// --- N-D core (the conclusion's 4-D extension).

func BenchmarkBQS4DPerPoint(b *testing.B) {
	c, err := core.NewCompressorN(core.Config{Tolerance: 10, Mode: core.ModeFast}, 4)
	if err != nil {
		b.Fatal(err)
	}
	ds := suite().Bat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ds.Points[i%len(ds.Points)]
		if _, _, err := c.Push(core.PointN{C: []float64{p.X, p.Y, float64(i % 300), p.T / 1e5}, T: p.T}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ingestion engine: fleet throughput at 1k and 10k devices.

// fleetBatches is the engine benchmarks' traffic: rounds batches of one
// fix per device, a per-device zig-zag that advances each round so
// compressor decisions (and some key-point emissions) actually happen.
func fleetBatches(devices, rounds int) [][]Fix {
	batches := make([][]Fix, rounds)
	for r := range batches {
		batch := make([]Fix, devices)
		for d := range batch {
			batch[d] = Fix{
				Device: "dev-" + strconv.Itoa(d),
				Point:  Point{X: float64(r * 40), Y: float64(d%50) + float64(r%2)*25, T: float64(r)},
			}
		}
		batches[r] = batch
	}
	return batches
}

// benchEngineIngest pushes pre-generated interleaved batches (one fix
// per device per batch, rotating through a small set of positions)
// through the engine; reported bytes/op is the 24-byte fix payload.
// With persist set, a segment log is attached, so the measured path
// includes the durability bookkeeping (per-session key accumulation);
// the sessions' durable flush happens in Close, timed separately by
// BenchmarkEnginePersistClose.
func benchEngineIngest(b *testing.B, devices int, persist bool) {
	cfg := EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 0}
	if persist {
		lg, err := OpenShardedSegmentLog(b.TempDir(), 1, SegmentLogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Persister = lg
	}
	e, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	const rounds = 8
	batches := fleetBatches(devices, rounds)
	// One round of every batch first: the sessions open and their
	// compressors warm outside the timed loop, so a short -benchtime does
	// not count opening them.
	for _, batch := range batches {
		if err := e.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetBytes(int64(devices) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Ingest(batches[i%rounds]); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

func BenchmarkEngineIngest1kDevices(b *testing.B)  { benchEngineIngest(b, 1000, false) }
func BenchmarkEngineIngest10kDevices(b *testing.B) { benchEngineIngest(b, 10000, false) }

// Same workload with the segment log attached: the delta vs the plain
// variants is the durability overhead on the ingest hot path.
func BenchmarkEngineIngestPersist1kDevices(b *testing.B)  { benchEngineIngest(b, 1000, true) }
func BenchmarkEngineIngestPersist10kDevices(b *testing.B) { benchEngineIngest(b, 10000, true) }

// BenchmarkEngineFlushSessions1kDevices measures the flush barrier's cut:
// each op sends every device one fix and flushes, so 1000 sessions are
// re-armed from their last key point, flushed, and their trails appended
// (no fsync: that is Sync's). ns/session is the op over the fleet, the
// ingest included — a flush with no fix since it is a no-op.
func BenchmarkEngineFlushSessions1kDevices(b *testing.B) {
	const devices, rounds = 1000, 8
	lg, err := OpenShardedSegmentLog(b.TempDir(), 1, SegmentLogOptions{})
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 0, Persister: lg})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	batches := fleetBatches(devices, rounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Ingest(batches[i%rounds]); err != nil {
			b.Fatal(err)
		}
		if err := e.FlushSessions(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/devices, "ns/session")
}

// BenchmarkEnginePersistClose measures the durable flush itself: each op
// ingests a small fleet and Closes the engine, which writes and fsyncs
// every finalized session trajectory through the segment log.
func BenchmarkEnginePersistClose(b *testing.B) {
	batches := fleetBatches(200, 8)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg, err := OpenShardedSegmentLog(filepath.Join(dir, strconv.Itoa(i)), 1, SegmentLogOptions{})
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(EngineConfig{Compressor: "fbqs", Tolerance: 10, Shards: 0, Persister: lg})
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			if err := e.Ingest(batch); err != nil {
				b.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- 3-D core (Section V-G).

func BenchmarkBQS3DPerPoint(b *testing.B) {
	c, err := core.NewCompressor3(core.Config{Tolerance: 10, Mode: core.ModeFast, RotationWarmup: -1})
	if err != nil {
		b.Fatal(err)
	}
	ds := suite().Bat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ds.Points[i%len(ds.Points)]
		c.Push(core.Point3{X: p.X, Y: p.Y, Z: float64(i % 100), T: p.T})
	}
}
