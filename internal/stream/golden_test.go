package stream

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcomp/bqs/internal/core"
)

// Golden-file regression tests: the exact key-point output of the core
// compressors on a checked-in fixture trace is frozen, so a refactor
// that changes compression behavior — even by one rounding step — fails
// loudly instead of silently shifting results.
//
// Regenerate after an INTENTIONAL behavior change with:
//
//	go test ./internal/stream -run TestGolden -update
//
// and review the diff of testdata/ like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

const goldenTolerance = 10.0

// goldenAlgos are the frozen (name, file) pairs.
var goldenAlgos = []string{"bqs", "fbqs", "dr", "timesensitive"}

func goldenFixture(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_trace.csv"))
	if err != nil {
		t.Fatalf("missing fixture (its provenance is documented in its own header comment): %v", err)
	}
	return data
}

func TestGoldenKeyPoints(t *testing.T) {
	raw := goldenFixture(t)
	pts, err := ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty fixture")
	}
	for _, name := range goldenAlgos {
		name := name
		t.Run(name, func(t *testing.T) {
			c, err := New(name, goldenTolerance)
			if err != nil {
				t.Fatal(err)
			}
			keys := Compress(c, pts)
			var buf bytes.Buffer
			if err := WriteCSV(&buf, keys); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+name+".csv")
			if *updateGolden {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d key points)", path, len(keys))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update once): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output changed on the fixture trace (%d key points now).\n"+
					"If this is an intentional algorithm change, regenerate with -update and review the diff;\n"+
					"otherwise a refactor silently altered compression behavior.", name, len(keys))
			}
		})
	}
	// "bqs" and "fbqs" bound the line distance, and under it FBQS's tangent
	// wedge is exact: without the grid "fbqs" snaps to, FBQS keeps the
	// "bqs" pin's key points.
	unsnapped, err := core.NewCompressor(core.Config{Tolerance: goldenTolerance, Mode: core.ModeFast, RotationWarmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	var fbqs bytes.Buffer
	if err := WriteCSV(&fbqs, Compress(unsnapped, pts)); err != nil {
		t.Fatal(err)
	}
	bqs, err := os.ReadFile(filepath.Join("testdata", "golden_bqs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bqs, fbqs.Bytes()) {
		t.Error("FBQS without the grid differs from golden_bqs.csv")
	}
}
