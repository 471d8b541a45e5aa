package segmentlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
)

// v2Fixture is a checked-in sharded root in the one on-disk format,
// written by buildV2Log compiled against commit a9213be (PR 11) — the
// last tree that still carried record-format 1, manifest format 1 and
// the in-place migration. It pins the format: this tree must read it
// to the checked-in golden answers, and must write the same bytes when
// it runs the same script. testdata/v2log.golden.json was produced by v2Snapshot
// at that commit too. LOCK (it only carries a pid) is not checked in.
const v2Fixture = "testdata/v2log"

// v2Options are the options the fixture was written with.
func v2Options() Options { return Options{MaxSegmentBytes: 512} }

// v2Track is device d's deterministic zig-zag: n keys starting at
// time t, in a 0.1° cell of its own.
func v2Track(d, t, n int) []trajstore.GeoKey {
	keys := make([]trajstore.GeoKey, n)
	for i := range keys {
		keys[i] = trajstore.GeoKey{
			Lat: float64(d) + float64((i*37)%11)*1e-5 + float64(i%3)*2e-3,
			Lon: 10*float64(d) + float64(t+i)*1e-4,
			T:   uint32(t + i),
		}
	}
	return keys
}

// buildV2Log runs the fixture script against dir: six devices over two
// shards append a chunked session each (one chunk again at the end), the sealed
// segments are compacted — merge, dedup and ageing through the coarse
// compressor under a fixed clock — and a second wave of appends then
// rotates past the compacted generation, so each shard ends with
// compacted, rotated and active segments.
func buildV2Log(t testing.TB, dir string) {
	t.Helper()
	lg, err := OpenSharded(dir, 2, v2Options())
	if err != nil {
		t.Fatal(err)
	}
	const devices = 6
	dev := func(d int) string { return fmt.Sprintf("dev-%d", d) }
	for d := 0; d < devices; d++ {
		track := v2Track(d, 1000, 37)
		for c := 0; c+1 < len(track); c += 9 {
			end := min(c+10, len(track))
			if err := lg.Append(dev(d), track[c:end]); err != nil {
				t.Fatal(err)
			}
		}
		if d == 2 { // a re-ingested chunk: dedup's input
			if err := lg.Append(dev(d), track[9:19]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	// The fixture's writer ran one compaction worker per shard; the count
	// is derived now and cannot reach the bytes.
	res, err := lg.Compact(CompactionPolicy{
		MergeChunks: true, CoarseTolerance: 150, MinAge: time.Hour,
		Now: func() time.Time { return time.Unix(1000+3600+40, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 || res.Deduped == 0 || res.Aged == 0 || res.Gen == 0 {
		t.Fatalf("fixture compaction exercised too little: %+v", res)
	}
	for r := 0; r < 4; r++ {
		for d := 0; d < devices; d++ {
			if err := lg.Append(dev(d), v2Track(d, 9000+100*r, 12)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// v2Windows are the window queries the golden file answers.
var v2Windows = []struct {
	Name                   string
	MinX, MinY, MaxX, MaxY float64
	T0, T1                 uint32
}{
	{"dev-3", 29.9, 2.9, 31.5, 3.1, 0, math.MaxUint32},
	{"early", -180, -90, 180, 90, 0, 1020},
	{"late-dev-0", -1, -1, 2, 1, 9000, math.MaxUint32},
	{"empty", 100, 60, 110, 70, 0, math.MaxUint32},
}

// v2Golden is everything a read-only open of the fixture answers.
type v2Golden struct {
	Stats   Stats
	Devices []string
	Query   map[string][]Record
	Window  map[string][]Record
	Pruning map[string]WindowStats
}

func v2Snapshot(t testing.TB, lg *ShardedLog) v2Golden {
	t.Helper()
	g := v2Golden{
		Stats: lg.Stats(), Devices: lg.Devices(),
		Query: map[string][]Record{}, Window: map[string][]Record{}, Pruning: map[string]WindowStats{},
	}
	for _, dev := range g.Devices {
		recs, err := lg.Query(dev, 0, math.MaxUint32)
		if err != nil {
			t.Fatal(err)
		}
		g.Query[dev] = recs
	}
	for _, w := range v2Windows {
		recs, ws, err := lg.QueryWindowStats(w.MinX, w.MinY, w.MaxX, w.MaxY, w.T0, w.T1)
		if err != nil {
			t.Fatal(err)
		}
		g.Window[w.Name] = recs
		g.Pruning[w.Name] = ws
	}
	return g
}

// treeFiles maps every regular file under root to its bytes, keyed by
// slash-separated relative path.
func treeFiles(t testing.TB, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFormatPinV2Fixture is the proof that collapsing to one format
// changed no byte of current-format data. Reading: a read-only open of
// the parent-written fixture answers Stats, Devices, Query and
// QueryWindow exactly as the golden file recorded. Writing: the same
// script run through this tree's writer — append, rotation, compaction,
// manifest publish, SHARDS — produces a tree whose every seg-*.log and
// SHARDS is byte-identical to the fixture, whose every MANIFEST is the
// fixture's without the legacy "idx" and "sum=" fields, and which holds
// no seg-*.idx: the fixture's writer sealed a block index beside each
// segment, this one writes none.
func TestFormatPinV2Fixture(t *testing.T) {
	want := treeFiles(t, v2Fixture)
	var segs, idxs int
	for name := range want {
		switch filepath.Ext(name) {
		case ".log":
			segs++
		case ".idx":
			idxs++
		}
	}
	if segs < 6 || idxs < 4 {
		t.Fatalf("fixture lost files: %d segments, %d block indexes", segs, idxs)
	}

	opts := v2Options()
	opts.ReadOnly = true
	lg, err := OpenSharded(v2Fixture, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := v2Snapshot(t, lg)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if after := treeFiles(t, v2Fixture); !reflect.DeepEqual(after, want) {
		t.Fatal("read-only open modified the fixture")
	}
	raw, err := os.ReadFile(v2Fixture + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden v2Golden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, golden) {
		gj, _ := json.MarshalIndent(got, "", " ")
		t.Fatalf("fixture answers differ from v2log.golden.json; got:\n%s", gj)
	}

	dir := t.TempDir()
	buildV2Log(t, dir)
	rebuilt := treeFiles(t, dir)
	delete(rebuilt, lockName)
	for name, b := range want {
		switch {
		case filepath.Ext(name) == ".idx":
			continue
		case filepath.Base(name) == manifestName:
			b = withoutLegacyFields(t, b)
		}
		if !bytes.Equal(rebuilt[name], b) {
			t.Errorf("%s: this tree wrote %d bytes that differ from the fixture's %d", name, len(rebuilt[name]), len(b))
		}
	}
	for name := range rebuilt {
		if _, ok := want[name]; !ok || filepath.Ext(name) == ".idx" {
			t.Errorf("%s: written by this tree, which writes no block index and nothing absent from the fixture", name)
		}
	}
}

// withoutLegacyFields is a fixture MANIFEST as this tree writes it: every
// seg line cut to its segment name, the CRC line re-sealed.
func withoutLegacyFields(t testing.TB, manifest []byte) []byte {
	t.Helper()
	covered, err := unsealText("manifest", manifest)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(covered), "\n")
	for i, ln := range lines {
		if f := strings.Fields(ln); len(f) > 2 && f[0] == "seg" {
			lines[i] = f[0] + " " + f[1] + "\n"
		}
	}
	return sealText([]byte(strings.Join(lines, "")))
}

// TestWritableOpenSweepsLegacyIndexes: a writable open of a copy of the
// fixture, whose writer sealed a block index beside each segment, removes
// every seg-*.idx and publishes MANIFESTs without the "idx" and "sum="
// fields; a read-only reopen of the copy then answers exactly as the
// golden file recorded, but for the generation that open published in
// each shard.
func TestWritableOpenSweepsLegacyIndexes(t *testing.T) {
	fixture := treeFiles(t, v2Fixture)
	dir := t.TempDir()
	idxs := 0
	for name, b := range fixture {
		if filepath.Ext(name) == ".idx" {
			idxs++
		}
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := errors.Join(os.MkdirAll(filepath.Dir(p), 0o755), os.WriteFile(p, b, 0o644)); err != nil {
			t.Fatal(err)
		}
	}
	if idxs == 0 {
		t.Fatal("fixture holds no block index to sweep")
	}
	lg, err := OpenSharded(dir, 0, v2Options())
	if err != nil {
		t.Fatal(err)
	}
	shards := len(lg.shards)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	for name, b := range treeFiles(t, dir) {
		if filepath.Ext(name) == ".idx" {
			t.Errorf("%s survived the writable open", name)
		}
		if filepath.Base(name) != manifestName {
			continue
		}
		if strings.Contains(string(b), " idx") || strings.Contains(string(b), " sum=") {
			t.Errorf("%s still carries the legacy fields:\n%s", name, b)
		}
		if _, err := parseManifest(b); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	opts := v2Options()
	opts.ReadOnly = true
	ro, err := OpenSharded(dir, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	got := v2Snapshot(t, ro)
	raw, err := os.ReadFile(v2Fixture + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden v2Golden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	golden.Stats.Gen += uint64(shards) // the writable open's publish, one a shard
	if !reflect.DeepEqual(got, golden) {
		gj, _ := json.MarshalIndent(got, "", " ")
		t.Fatalf("the swept copy answers differently from v2log.golden.json; got:\n%s", gj)
	}
}
