package segmentlog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// v6Fixture, v7Fixture and v8Fixture are checked-in sharded roots, the
// fixture script's output from the writer of the tree that introduced
// segment format 6, 7 and 8, each with its golden — fixtureSnapshot's
// answers in that tree — beside it (v6log.golden.json, …). This tree reads
// v8Fixture to its golden and writes it byte for byte; it reads v6Fixture
// and v7Fixture once hop 4 of DESIGN.md's "Upgrading old data" has carried
// them forward. Each is written once and never regenerated; a later format
// gets a fixture of its own, and a fixture goes when its version and its
// upgrade hop do. LOCK (it only carries a pid) is not checked in.
//
// The script stores what the registered "fbqs" kept of a zig-zag of fixes
// (gridTrack), keys on its grid, so its records carry the packed block's
// divisor; version 7's adds a device of fixtureLongKeys keys, which
// compaction merges into a record whose fields take tables, and version
// 8's one more of as many keys of a steady drive (pacedTrack), merged into
// a record whose Δt takes the pace. A change to what "fbqs" keeps changes
// this input, not the format, so the tracks' keys are checked in
// (fixtureKeysFile) and a fixture is never regenerated for one.
const (
	v6Fixture = "testdata/v6log"
	v7Fixture = "testdata/v7log"
	v8Fixture = "testdata/v8log"

	fixtureLongKeys = 40
)

// fixtureOptions are the options the fixture was written with.
func fixtureOptions() Options { return Options{MaxSegmentBytes: 512} }

// fixtureKeysFile holds the tracks the fixture script stores, as the
// writers of the three fixtures had the registered "fbqs" at 5 m keep them,
// one array of [lat, lon, t] keys a track, named by what it is and its
// device and first time. That "fbqs" snapped each key to the grid point
// nearest its fix; the one here ends segments at free grid joints and keeps
// other keys, so the script reads its input from the file instead of
// running the compressor.
const fixtureKeysFile = "testdata/fixture-keys.json"

// fixtureTrack is the first n keys of the checked-in track kind (grid or
// paced) of device d from time t.
func fixtureTrack(kind string, d, t, n int) []trajstore.GeoKey {
	b, err := os.ReadFile(fixtureKeysFile)
	if err != nil {
		panic(err)
	}
	var tracks map[string][][3]float64
	if err := json.Unmarshal(b, &tracks); err != nil {
		panic(err)
	}
	track := tracks[fmt.Sprintf("%s %d %d", kind, d, t)]
	if len(track) < n {
		panic(fmt.Sprintf("%s: %s track of device %d from %d has %d keys, want %d", fixtureKeysFile, kind, d, t, len(track), n))
	}
	keys := make([]trajstore.GeoKey, n)
	for i, k := range track[:n] {
		keys[i] = trajstore.GeoKey{Lat: k[0], Lon: k[1], T: uint32(k[2])}
	}
	return keys
}

// gridTrack is device d's first n key points of a zig-zag of fixes a second
// apart from time t, on the wire's lattice but off any coarser grid, in a
// 0.1° cell of its own: keys on the grid, so its records carry a divisor.
func gridTrack(d, t, n int) []trajstore.GeoKey { return fixtureTrack("grid", d, t, n) }

// pacedTrack is device d's first n key points of a drive from time t at a
// steady 1e-4° a second, a fix a second, along a street grid: legs of 4 to
// 12 s east, then north or south by turns, so that each key's Δt is its
// step's longer component at that pace.
func pacedTrack(d, t, n int) []trajstore.GeoKey { return fixtureTrack("paced", d, t, n) }

// buildFixtureLog runs the fixture script against dir: six devices over
// two shards append a chunked session each (one chunk again at the end);
// for long > 0, a seventh appends long keys of gridTrack after the ageing
// horizon in engine-sized chunks, and for paced > 0 an eighth paced keys of
// pacedTrack so; the log is sealed and compacted — merge, dedup and ageing
// through the coarse compressor under a fixed clock — and a second wave of
// appends then rotates past the compacted generation, so each shard ends
// with compacted, rotated and active segments.
func buildFixtureLog(t testing.TB, dir string, long, paced int) {
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
	for d, track := range [][]trajstore.GeoKey{gridTrack(devices, 2000, long), pacedTrack(devices+1, 3000, paced)} {
		for c := 0; c+1 < len(track); c += 15 {
			if err := lg.Append(dev(devices+d), track[c:min(c+16, len(track))]); err != nil {
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

// checkVersions fails unless every segment the MANIFESTs of root name
// carries version byte v.
func checkVersions(t testing.TB, root string, v byte) {
	t.Helper()
	shards, err := filepath.Glob(filepath.Join(root, "shard-*"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards under %s: %v", root, err)
	}
	for _, shard := range shards {
		man, _, err := readManifest(vfs.OS, shard)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range man.Segs {
			b, err := os.ReadFile(filepath.Join(shard, s.Name))
			if err != nil || len(b) < headerSize {
				t.Fatalf("%s: %d bytes, %v", s.Name, len(b), err)
			}
			if b[6] != v {
				t.Fatalf("%s: segment version %d, want %d", s.Name, b[6], v)
			}
		}
	}
}

// upgradeFixture copies the fixture root into dir as hop 4 of "Upgrading
// old data" leaves it: byte 6 of every shard-*/seg-*.log set to version.
func upgradeFixture(t testing.TB, fixture, dir string) {
	t.Helper()
	for name, b := range treeFiles(t, fixture) {
		if ok, _ := path.Match("shard-*/seg-*.log", name); ok {
			b[6] = version
		}
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkRebuilt runs the fixture script with long and paced through this
// tree's writer — append, rotation, seal, compaction with ageing, manifest
// publish, SHARDS — and fails unless it writes every file of want byte for
// byte and nothing else.
func checkRebuilt(t *testing.T, want map[string][]byte, long, paced int) {
	t.Helper()
	dir := t.TempDir()
	buildFixtureLog(t, dir, long, paced)
	rebuilt := treeFiles(t, dir)
	delete(rebuilt, lockName)
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
}

// TestFormatPinV8Fixture pins the format this tree writes. Reading: a
// read-only open of the fixture answers its golden. Writing: the script run
// through this tree's writer writes the fixture byte for byte, every
// segment version 8; every record of it with two keys or more carries a
// divisor, one has fields that take tables and one a Δt at a pace.
func TestFormatPinV8Fixture(t *testing.T) {
	checkGolden(t, v8Fixture, readOnlySnapshot(t, v8Fixture), readGolden(t, v8Fixture))
	checkVersions(t, v8Fixture, version)
	want := treeFiles(t, v8Fixture)
	checkRebuilt(t, want, fixtureLongKeys, fixtureLongKeys)
	gridded, tabled, paced := 0, 0, 0 // every key lies on "fbqs"'s grid
	for name, b := range want {
		if strings.HasSuffix(name, ".log") {
			for pos := headerSize; ; {
				body, _, next, ok := nextRecord(b, pos)
				if !ok {
					break
				}
				_, payload, err := splitBody(body)
				if n, _ := binary.Uvarint(payload); err != nil || n >= 2 && payload[packedHeadOffset(payload)]&flagGrid == 0 {
					t.Fatalf("%s: the record at %d carries no divisor (%v)", name, pos, err)
				} else if n >= 2 {
					head := payload[packedHeadOffset(payload):][:3]
					gridded, paced = gridded+1, paced+int(head[2]&flagPace>>6)
					for _, h := range head {
						if h&31 == tableK {
							tabled++
						}
					}
				}
				pos = next
			}
		}
	}
	if gridded == 0 || tabled == 0 || paced == 0 {
		t.Errorf("%d records of the fixture carry a divisor, %d fields take a table, %d records a pace", gridded, tabled, paced)
	}
}

// TestUpgradeV7Fixture: hop 4 of "Upgrading old data" — byte 6 of every
// shard-*/seg-*.log set to 8, the log closed — carries the version-7
// fixture forward. A read-only open of the result answers the fixture's
// golden, and this tree's writer, running the script that wrote it, writes
// the result byte for byte: the version-7 records are version-8 records at
// no pace, and no record of that script takes one.
func TestUpgradeV7Fixture(t *testing.T) {
	dir := t.TempDir()
	upgradeFixture(t, v7Fixture, dir)
	checkGolden(t, "the upgraded "+v7Fixture, readOnlySnapshot(t, dir), readGolden(t, v7Fixture))
	checkVersions(t, dir, version)
	checkRebuilt(t, treeFiles(t, dir), fixtureLongKeys, 0)
}

// TestUpgradeV6Fixture: hop 4 carries the version-6 fixture forward as it
// does the version-7 one: the version-6 records are version-8 records that
// take neither a table nor a pace.
func TestUpgradeV6Fixture(t *testing.T) {
	dir := t.TempDir()
	upgradeFixture(t, v6Fixture, dir)
	checkGolden(t, "the upgraded "+v6Fixture, readOnlySnapshot(t, dir), readGolden(t, v6Fixture))
	checkVersions(t, dir, version)
	checkRebuilt(t, treeFiles(t, dir), 0, 0)
}
