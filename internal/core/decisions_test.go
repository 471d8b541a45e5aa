package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// Decision pin: every compressor × mode × metric × warm-up × MaxBuffer
// combination runs two seeded trajectories back to back (so the state a
// Flush leaves behind is covered too; on the second the end point retreats
// along the segment, where the line and segment metrics part ways) and is
// frozen as one line: the SHA-256 of the emitted key points' Float64bits
// plus the full Stats struct. A refactor of the decision loop must reproduce the file byte for
// byte; regenerate only after an INTENTIONAL behaviour change with
//
//	go test ./internal/core -run TestDecisionsGolden -update

var updateDecisions = flag.Bool("update", false, "rewrite testdata/decisions.golden with current output")

const decisionTolerance = 10.0

// decisionTraces are the two trajectories of the pin: a plain walk, then a
// walk followed by its own reversal.
func decisionTraces[P any](seed int64, walk func(*rand.Rand) []P) [][]P {
	out := walk(rand.New(rand.NewSource(seed)))
	back := walk(rand.New(rand.NewSource(seed + 1)))
	for i := len(back) - 2; i >= 0; i-- {
		back = append(back, back[i])
	}
	return [][]P{out, back}
}

// decisionWalk is the 2-D compressor's walk in the pin.
func decisionWalk(rng *rand.Rand) []Point { return randomWalk(rng, 1000, 12) }

// digestDecisions pushes decisionTraces through one compressor, flushing
// after each, and hashes every emitted key point's Float64bits.
func digestDecisions[P any](seed int64, walk func(*rand.Rand) []P,
	push func(P) (P, bool), flush func() (P, bool), floats func(P) []float64) []byte {
	h := sha256.New()
	emit := func(kp P, ok bool) {
		if !ok {
			return
		}
		var b [8]byte
		for _, v := range floats(kp) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, pts := range decisionTraces(seed, walk) {
		for _, p := range pts {
			emit(push(p))
		}
		emit(flush())
	}
	return h.Sum(nil)
}

// decisionRunners return the key-point digest and the accumulated Stats of
// one compressor under cfg.
var decisionRunners = []struct {
	name string
	run  func(t *testing.T, cfg Config) ([]byte, Stats)
}{
	{"Compressor", func(t *testing.T, cfg Config) ([]byte, Stats) {
		c := mustCompressor(t, cfg)
		sum := digestDecisions(100, decisionWalk,
			c.Push, c.Flush, func(p Point) []float64 { return []float64{p.X, p.Y, p.T} })
		return sum, c.Stats()
	}},
	{"Compressor3", func(t *testing.T, cfg Config) ([]byte, Stats) {
		c, err := NewCompressor3(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := digestDecisions(200, func(rng *rand.Rand) []Point3 { return randomWalk3(rng, 500, 4) },
			c.Push, c.Flush, func(p Point3) []float64 { return []float64{p.X, p.Y, p.Z, p.T} })
		return sum, c.Stats()
	}},
	{"CompressorN/k=2", func(t *testing.T, cfg Config) ([]byte, Stats) { return runDecisionsN(t, cfg, 2) }},
	{"CompressorN/k=4", func(t *testing.T, cfg Config) ([]byte, Stats) { return runDecisionsN(t, cfg, 4) }},
}

func runDecisionsN(t *testing.T, cfg Config, k int) ([]byte, Stats) {
	c, err := NewCompressorN(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	push := func(p PointN) (PointN, bool) {
		kp, ok, err := c.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		return kp, ok
	}
	sum := digestDecisions(300, func(rng *rand.Rand) []PointN { return randomWalkN(rng, 500, k, 2) },
		push, c.Flush, func(p PointN) []float64 { return append(append([]float64(nil), p.C...), p.T) })
	return sum, c.Stats()
}

func TestDecisionsGolden(t *testing.T) {
	var got bytes.Buffer
	sums := map[string]string{}
	for _, r := range decisionRunners {
		for _, mode := range []Mode{ModeExact, ModeFast} {
			for _, metric := range []Metric{MetricLine, MetricSegment} {
				for _, warmup := range []int{0, -1} {
					for _, maxBuf := range []int{0, 32} {
						sum, stats := r.run(t, Config{
							Tolerance: decisionTolerance, Mode: mode, Metric: metric,
							RotationWarmup: warmup, MaxBuffer: maxBuf,
						})
						name := fmt.Sprintf("%s/%v/%v/warmup=%d/maxbuf=%d", r.name, mode, metric, warmup, maxBuf)
						sums[name] = fmt.Sprintf("%x", sum)
						fmt.Fprintf(&got, "%s %s %+v\n", name, sums[name], stats)
					}
				}
			}
		}
	}
	// Whatever the file says: under the line metric the 2-D FBQS emits the
	// unbuffered BQS's key points (the tangent wedge is exact; it is not a
	// segment-metric bound, and those rows stay apart).
	for _, warmup := range []int{0, -1} {
		for _, maxBuf := range []int{0, 32} {
			fbqs := fmt.Sprintf("Compressor/fbqs/line/warmup=%d/maxbuf=%d", warmup, maxBuf)
			bqs := fmt.Sprintf("Compressor/bqs/line/warmup=%d/maxbuf=0", warmup)
			if sums[fbqs] != sums[bqs] {
				t.Errorf("%s hashes to %s, %s to %s", fbqs, sums[fbqs], bqs, sums[bqs])
			}
		}
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update once): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("decisions changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Errorf("decisions.golden has %d lines, the run produced %d", len(wantLines), len(gotLines))
	}
}
