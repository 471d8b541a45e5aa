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
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/stream"
	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// v5Fixture and v6Fixture are checked-in sharded roots, each the fixture
// script's output from the writer of the tree that introduced its segment
// format, with a golden file — fixtureSnapshot's answers in that tree —
// beside it. This tree must read each to its golden, and write the newest
// byte for byte. A fixture is written once and never regenerated; a later
// format gets a fixture of its own, and one goes when its version stops
// being read. LOCK (it only carries a pid) is not checked in.
//
// Version 5's script stored fixed zig-zag keys; version 6's stores what the
// registered "fbqs" keeps of a zig-zag of fixes (gridTrack), keys on its
// grid, so its records carry the packed block's divisor. A change to what
// "fbqs" keeps changes this input, not the format: it then checks in
// gridTrack's keys as they are here instead of regenerating the fixture.
const (
	v5Fixture = "testdata/v5log"
	v6Fixture = "testdata/v6log"
)

// fixtureOptions are the options the fixture was written with.
func fixtureOptions() Options { return Options{MaxSegmentBytes: 512} }

// gridTrack is device d's first n key points as an engine running the
// registered "fbqs" at 5 m stores them: the compressor over a deterministic
// zig-zag of fixes a second apart from time t, on the wire's lattice but off
// any coarser grid, in a 0.1° cell of its own; each key through the plane
// and back, as a session persists it.
func gridTrack(d, t, n int) []trajstore.GeoKey {
	comp, err := stream.New("fbqs", 5)
	if err != nil {
		panic(err)
	}
	var keys []trajstore.GeoKey
	for i := 0; len(keys) < n; i++ {
		fix := trajstore.GeoKey{
			Lat: float64(d) + float64((i*37)%11)*1e-5 + float64(i/4%3)*2e-3 + float64(i*i%13)*3e-7,
			Lon: 10*float64(d) + float64(t+i)*1e-4 + float64(i%5)*7e-7,
			T:   uint32(t + i),
		}
		if kp, ok := comp.Push(trajstore.PlanePoint(fix)); ok {
			keys = append(keys, trajstore.PlaneKey(kp))
		}
	}
	return keys
}

// buildFixtureLog runs the fixture script against dir: six devices over
// two shards append a chunked session each (one chunk again at the end),
// the log is sealed and compacted — merge, dedup and ageing through the
// coarse compressor under a fixed clock — and a second wave of appends
// then rotates past the compacted generation, so each shard ends with
// compacted, rotated and active segments.
func buildFixtureLog(t testing.TB, dir string) {
	t.Helper()
	lg, err := OpenSharded(dir, 2, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	const devices = 6
	dev := func(d int) string { return fmt.Sprintf("dev-%d", d) }
	for d := 0; d < devices; d++ {
		track := gridTrack(d, 1000, 37)
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
	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	// A pass writes each shard's devices in name order, as the fixture's
	// writer did.
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
			if err := lg.Append(dev(d), gridTrack(d, 9000+100*r, 12)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// fixtureWindows are the window queries the golden files answer.
var fixtureWindows = []struct {
	Name                   string
	MinX, MinY, MaxX, MaxY float64
	T0, T1                 uint32
}{
	{"dev-3", 29.9, 2.9, 31.5, 3.1, 0, math.MaxUint32},
	{"early", -180, -90, 180, 90, 0, 1020},
	{"late-dev-0", -1, -1, 2, 1, 9000, math.MaxUint32},
	{"empty", 100, 60, 110, 70, 0, math.MaxUint32},
}

// fixtureGolden is everything a read-only open of a fixture answers.
type fixtureGolden struct {
	Stats   Stats
	Devices []string
	Query   map[string][]Record
	Window  map[string][]Record
	Pruning map[string]WindowStats
}

func fixtureSnapshot(t testing.TB, lg *ShardedLog) fixtureGolden {
	t.Helper()
	g := fixtureGolden{
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
	for _, w := range fixtureWindows {
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

func readGolden(t testing.TB, fixture string) fixtureGolden {
	t.Helper()
	raw, err := os.ReadFile(fixture + ".golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g fixtureGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// readOnlySnapshot is what a read-only open of root answers; the open
// must modify nothing.
func readOnlySnapshot(t testing.TB, root string) fixtureGolden {
	t.Helper()
	before := treeFiles(t, root)
	opts := fixtureOptions()
	opts.ReadOnly = true
	lg, err := OpenSharded(root, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := fixtureSnapshot(t, lg)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if after := treeFiles(t, root); !reflect.DeepEqual(after, before) {
		t.Fatalf("read-only open modified %s", root)
	}
	return got
}

// checkGolden fails unless got is want.
func checkGolden(t testing.TB, what string, got, want fixtureGolden) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.MarshalIndent(got, "", " ")
		t.Fatalf("%s answers differently from its golden; got:\n%s", what, gj)
	}
}

// segVersions lists, a string per shard of root, the version byte of every
// segment its MANIFEST names, in order: "666" is three version-6
// segments.
func segVersions(t testing.TB, root string) []string {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(root, "shard-*"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards under %s: %v", root, err)
	}
	out := make([]string, len(shards))
	for i, shard := range shards {
		man, _, err := readManifest(vfs.OS, shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range man.Segs {
			b, err := os.ReadFile(filepath.Join(shard, s.Name))
			if err != nil || len(b) < headerSize {
				t.Fatalf("%s: %d bytes, %v", s.Name, len(b), err)
			}
			out[i] += fmt.Sprint(b[6])
		}
	}
	return out
}

// TestFormatPinV5Fixture pins that version 5 still reads: a read-only open
// of the fixture, every segment of it version 5, answers its golden.
func TestFormatPinV5Fixture(t *testing.T) {
	checkGolden(t, v5Fixture, readOnlySnapshot(t, v5Fixture), readGolden(t, v5Fixture))
	checkVersions(t, v5Fixture, "5")
}

// TestFormatPinV6Fixture pins the format this tree writes. Reading: a
// read-only open of the fixture answers its golden. Writing: the script run
// through this tree's writer — append, rotation, seal, compaction with
// ageing, manifest publish, SHARDS — writes every file of the fixture byte
// for byte and nothing else, every segment version 6, and some record of it
// carries a divisor.
func TestFormatPinV6Fixture(t *testing.T) {
	dir := t.TempDir()
	buildFixtureLog(t, dir)
	rebuilt := treeFiles(t, dir)
	delete(rebuilt, lockName)
	checkGolden(t, v6Fixture, readOnlySnapshot(t, v6Fixture), readGolden(t, v6Fixture))
	checkVersions(t, v6Fixture, "6")

	want := treeFiles(t, v6Fixture)
	for name, b := range want {
		if !bytes.Equal(rebuilt[name], b) {
			t.Errorf("%s: this tree wrote %d bytes that differ from the fixture's %d", name, len(rebuilt[name]), len(b))
		}
	}
	for name := range rebuilt {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written by this tree, absent from the fixture", name)
		}
	}
	// The version-5 reader refuses some record: one carries a divisor.
	refused := false
	for name, b := range want {
		if strings.HasSuffix(name, ".log") {
			for pos := headerSize; ; {
				body, _, next, ok := nextRecord(b, pos)
				if !ok {
					break
				}
				_, _, _, err := openRecord(nil, body, 5)
				refused, pos = refused || err != nil, next
			}
		}
	}
	if !refused {
		t.Error("no record of the fixture carries a divisor")
	}
}

// copyTree copies every file under root into a fresh directory.
func copyTree(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	for name, b := range treeFiles(t, root) {
		p := filepath.Join(dst, filepath.FromSlash(name))
		if err := errors.Join(os.MkdirAll(filepath.Dir(p), 0o755), os.WriteFile(p, b, 0o644)); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkVersions fails unless every segment of the fixture root is version v.
func checkVersions(t *testing.T, root, v string) {
	t.Helper()
	for _, vs := range segVersions(t, root) {
		if strings.Trim(vs, v) != "" {
			t.Fatalf("%s segment versions %q, want all %s", root, vs, v)
		}
	}
}

// TestVersion5Upgrades: a writable open of the version-5 fixture leaves
// every segment of it as it was and appends to a new version-6 segment,
// whose record — a chunk chained to dev-0's last, then keys on "fbqs"'s
// grid — reads back after the fixture's; Seal and a merging Compact then
// rewrite every segment at version 6, the two chunks one record, the other
// shard's too, whose records the pass does not change. A version-6
// segment relabelled 5 is refused at its first record with a divisor: what
// version 5 never wrote.
func TestVersion5Upgrades(t *testing.T) {
	root := copyTree(t, v5Fixture)
	before := treeFiles(t, root)
	lg, err := OpenSharded(root, 0, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := readGolden(t, v5Fixture)
	last := want.Query["dev-0"][len(want.Query["dev-0"])-1].Keys
	chunk := append([]trajstore.GeoKey{last[len(last)-1]}, gridTrack(0, 20000, 12)...)
	if err := lg.Append("dev-0", chunk); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	after := treeFiles(t, root)
	for name, b := range before {
		if strings.HasSuffix(name, ".log") && !bytes.Equal(after[name], b) {
			t.Fatalf("%s: a version-5 segment was written to", name)
		}
	}
	for _, vs := range segVersions(t, root) {
		if vs != "5556" {
			t.Fatalf("segment versions %q after a writable open, want the fixture's 555 then a new 6", vs)
		}
	}
	got := readOnlySnapshot(t, root)
	added := got.Query["dev-0"][len(got.Query["dev-0"])-1]
	if n := len(want.Query["dev-0"]); len(got.Query["dev-0"]) != n+1 || !reflect.DeepEqual(got.Query["dev-0"][:n], want.Query["dev-0"]) || added.T1 < 20000 {
		t.Fatalf("dev-0 reads %d records, want the fixture's %d and the appended one", len(got.Query["dev-0"]), n)
	}

	lg, err = OpenSharded(root, 0, fixtureOptions())
	if err == nil {
		err = lg.Seal()
		if err == nil {
			_, err = lg.Compact(CompactionPolicy{MergeChunks: true})
		}
		err = errors.Join(err, lg.Close())
	}
	if err != nil {
		t.Fatal(err)
	}
	checkVersions(t, root, "6") // the shard whose records the pass left unchanged too
	merged := readOnlySnapshot(t, root).Query["dev-0"]
	joined := append(slices.Clone(last), chunk[1:]...)
	if n := len(merged); n != len(got.Query["dev-0"])-1 || !reflect.DeepEqual(merged[n-1].Keys, joined) {
		t.Fatalf("dev-0 reads %d records after the merge, want its last chunk and the appended one joined", n)
	}

	relabelled := copyTree(t, v6Fixture)
	for name, b := range treeFiles(t, relabelled) {
		if strings.HasSuffix(name, ".log") {
			b[6] = 5
			if err := os.WriteFile(filepath.Join(relabelled, filepath.FromSlash(name)), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	opts := fixtureOptions()
	opts.ReadOnly = true
	if lg, err := OpenSharded(relabelled, 0, opts); err == nil {
		st := lg.Stats()
		_ = lg.Close() // read-only: nothing to lose
		if st.Truncated == 0 {
			t.Fatal("a version-5 segment's records with a divisor were served")
		}
	}
}
