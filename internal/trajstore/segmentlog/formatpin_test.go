package segmentlog

import (
	"bytes"
	"encoding/binary"
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

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog/vfs"
)

// v2Fixture is a checked-in sharded root in segment format 2, written by
// buildFixtureLog compiled against commit a9213be — the last tree
// that still carried record-format 1, manifest format 1 and the in-place
// migration; testdata/v2log.golden.json was produced by fixtureSnapshot at
// that commit too. It is a read fixture: this tree must read it to the
// golden answers, and a writable open must carry it forward (the tests
// below work on copies). LOCK (it only carries a pid) is not checked in.
const v2Fixture = "testdata/v2log"

// v3Fixture is the same script's output from the writer of the commit
// that introduced segment format 3, with v3log.golden.json beside it. Like
// v2Fixture it is a read fixture, written once and never regenerated.
const v3Fixture = "testdata/v3log"

// v4Fixture is the script's output — since it seals before its compaction —
// from the writer of the commit that introduced segment format 4, with
// v4log.golden.json beside it. Like v3Fixture it is a read fixture, written
// once and never regenerated.
const v4Fixture = "testdata/v4log"

// v5Fixture is the same script's output from the writer of the commit that
// introduced segment format 5, with v5log.golden.json beside it: this tree
// must read it to that golden and write it byte for byte. It is written
// once and never regenerated; a later format gets a fixture of its own, and
// this one stays as a read fixture.
const v5Fixture = "testdata/v5log"

// fixtureOptions are the options the fixtures were written with.
func fixtureOptions() Options { return Options{MaxSegmentBytes: 512} }

// fixtureTrack is device d's deterministic zig-zag: n keys starting at
// time t, in a 0.1° cell of its own.
func fixtureTrack(d, t, n int) []trajstore.GeoKey {
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

// buildFixtureLog runs the fixture script against dir: six devices over
// two shards append a chunked session each (one chunk again at the end),
// the log is sealed and compacted — merge, dedup and ageing through the
// coarse compressor under a fixed clock — and a second wave of appends
// then rotates past the compacted generation, so each shard ends with
// compacted, rotated and active segments. (The v2 and v3 fixtures' writers
// compacted without the seal, what rotation had sealed: their records were
// large enough for that to take the dedup's input.)
func buildFixtureLog(t testing.TB, dir string) {
	t.Helper()
	lg, err := OpenSharded(dir, 2, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	const devices = 6
	dev := func(d int) string { return fmt.Sprintf("dev-%d", d) }
	for d := 0; d < devices; d++ {
		track := fixtureTrack(d, 1000, 37)
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
	// The fixtures' writers ran one compaction worker per shard; the count
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
			if err := lg.Append(dev(d), fixtureTrack(d, 9000+100*r, 12)); err != nil {
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

// writeTree writes files, as treeFiles maps them, under root.
func writeTree(t testing.TB, root string, files map[string][]byte) {
	t.Helper()
	for name, b := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := errors.Join(os.MkdirAll(filepath.Dir(p), 0o755), os.WriteFile(p, b, 0o644)); err != nil {
			t.Fatal(err)
		}
	}
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
// segment its MANIFEST names, in order: "2224" is three version-2 segments
// and a version-4 one.
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

// TestFormatPinV2Fixture: this tree reads segment format 2 — the fixture
// written at commit a9213be, every segment version 2, a block index beside
// most — to the golden answers recorded then: Stats, Devices, Query and
// QueryWindow, read-only and modifying nothing.
func TestFormatPinV2Fixture(t *testing.T) {
	var segs, idxs int
	for name := range treeFiles(t, v2Fixture) {
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
	for _, v := range segVersions(t, v2Fixture) {
		if strings.Trim(v, "2") != "" {
			t.Fatalf("fixture segment versions %q, want all 2", v)
		}
	}
	checkGolden(t, v2Fixture, readOnlySnapshot(t, v2Fixture), readGolden(t, v2Fixture))
}

// TestFormatPinV3Fixture: this tree reads segment format 3 — the fixture
// written by the commit that introduced it, every segment version 3 — to
// the golden answers recorded then, read-only and modifying nothing.
func TestFormatPinV3Fixture(t *testing.T) {
	for _, v := range segVersions(t, v3Fixture) {
		if strings.Trim(v, "3") != "" {
			t.Fatalf("fixture segment versions %q, want all 3", v)
		}
	}
	checkGolden(t, v3Fixture, readOnlySnapshot(t, v3Fixture), readGolden(t, v3Fixture))
}

// TestFormatPinV4Fixture: this tree reads segment format 4 — the fixture
// written by the commit that introduced it, every segment version 4 — to
// the golden answers recorded then, read-only and modifying nothing.
func TestFormatPinV4Fixture(t *testing.T) {
	for _, v := range segVersions(t, v4Fixture) {
		if strings.Trim(v, "4") != "" {
			t.Fatalf("fixture segment versions %q, want all 4", v)
		}
	}
	checkGolden(t, v4Fixture, readOnlySnapshot(t, v4Fixture), readGolden(t, v4Fixture))
}

// TestFormatPinV5Fixture pins the format this tree writes. Reading: a
// read-only open of the fixture answers its golden. Writing: the script run
// through this tree's writer — append, rotation, seal, compaction with
// ageing, manifest publish, SHARDS — writes every file of the fixture byte
// for byte and nothing else, every segment version 5.
func TestFormatPinV5Fixture(t *testing.T) {
	dir := t.TempDir()
	buildFixtureLog(t, dir)
	rebuilt := treeFiles(t, dir)
	delete(rebuilt, lockName)
	checkGolden(t, v5Fixture, readOnlySnapshot(t, v5Fixture), readGolden(t, v5Fixture))
	for _, v := range segVersions(t, v5Fixture) {
		if strings.Trim(v, "5") != "" {
			t.Fatalf("fixture segment versions %q, want all 5", v)
		}
	}

	want := treeFiles(t, v5Fixture)
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

// withActiveSealed is an older version's fixture's golden as a log answers
// it once a writable open has sealed each shard's active segment: one
// published generation and one empty segment of this version more a shard,
// which every window prunes.
func withActiveSealed(g fixtureGolden, shards int) fixtureGolden {
	g.Stats.Gen += uint64(shards)
	g.Stats.Segments += shards
	g.Stats.Bytes += int64(shards * headerSize)
	for name, ws := range g.Pruning {
		ws.Segments += shards
		ws.SegmentsPruned += shards
		g.Pruning[name] = ws
	}
	return g
}

// TestWritableOpenSweepsLegacyIndexes: a writable open of a copy of the v2
// fixture, whose writer sealed a block index beside each segment, removes
// every seg-*.idx and publishes MANIFESTs without the "idx" and "sum="
// fields; a read-only reopen of the copy then answers exactly as the
// golden file recorded, but for what sealing each shard's version-2 active
// segment added (withActiveSealed).
func TestWritableOpenSweepsLegacyIndexes(t *testing.T) {
	fixture := treeFiles(t, v2Fixture)
	dir := t.TempDir()
	writeTree(t, dir, fixture)
	idxs := 0
	for name := range fixture {
		if filepath.Ext(name) == ".idx" {
			idxs++
		}
	}
	if idxs == 0 {
		t.Fatal("fixture holds no block index to sweep")
	}
	lg, err := OpenSharded(dir, 0, fixtureOptions())
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
	checkGolden(t, "the swept copy", readOnlySnapshot(t, dir), withActiveSealed(readGolden(t, v2Fixture), shards))
}

// TestMixedVersionLog carries a copy of each older version's fixture
// forward, answering its golden at every step: a writable open seals each
// shard's active segment behind an empty version-5 one; a new device's
// chunks land in version 5; an explicit compaction after a seal — merging
// nothing, so that no record changes — still publishes, rewriting every
// older segment as version 5; a read-only reopen reads the result.
func TestMixedVersionLog(t *testing.T) {
	for _, fixture := range []string{v2Fixture, v3Fixture, v4Fixture} {
		t.Run(filepath.Base(fixture), func(t *testing.T) { carryForward(t, fixture) })
	}
}

func carryForward(t *testing.T, fixture string) {
	dir := t.TempDir()
	writeTree(t, dir, treeFiles(t, fixture))
	golden, old, cur := readGolden(t, fixture), segVersions(t, fixture)[0][:1], fmt.Sprint(version)
	lg, err := OpenSharded(dir, 0, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	checkGolden(t, "the opened copy", fixtureSnapshot(t, lg), withActiveSealed(golden, len(lg.shards)))
	opened := segVersions(t, dir)
	for _, v := range opened {
		if !strings.HasSuffix(v, old+cur) || strings.Trim(v[:len(v)-1], old) != "" {
			t.Fatalf("segment versions after a writable open %q, want the fixture's %ss and one %s", opened, old, cur)
		}
	}

	const newDev = "dev-new"
	track := fixtureTrack(7, 20000, 28) // in no fixture window
	block, err := trajstore.DeltaEncode(track)
	if err != nil {
		t.Fatal(err)
	}
	lattice, err := trajstore.DeltaDecode(block) // track at wire resolution
	if err != nil {
		t.Fatal(err)
	}
	answers := func(step string, lg *ShardedLog, chunks int) {
		t.Helper()
		got := fixtureSnapshot(t, lg)
		recs := got.Query[newDev]
		delete(got.Query, newDev)
		got.Devices = slices.DeleteFunc(got.Devices, func(d string) bool { return d == newDev })
		if !reflect.DeepEqual(got.Devices, golden.Devices) || !reflect.DeepEqual(got.Query, golden.Query) || !reflect.DeepEqual(got.Window, golden.Window) {
			t.Fatalf("%s: the fixture's devices answer differently from its golden", step)
		}
		var keys []trajstore.GeoKey
		for i, r := range recs {
			keys = append(keys, r.Keys[min(i, 1):]...) // chunks share their end keys
		}
		if len(recs) != chunks || !reflect.DeepEqual(keys, lattice) {
			t.Fatalf("%s: %s reads back as %d records, want its %d keys in %d", step, newDev, len(recs), len(track), chunks)
		}
	}
	for c := 0; c+1 < len(track); c += 9 {
		if err := lg.Append(newDev, track[c:min(c+10, len(track))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Sync(); err != nil {
		t.Fatal(err)
	}
	answers("appended", lg, 3)
	for i, v := range segVersions(t, dir) {
		if !strings.HasPrefix(v, opened[i][:len(opened[i])-1]) || strings.Trim(v[len(opened[i])-1:], cur) != "" {
			t.Fatalf("segment versions after the appends %q, want the fixture's %ss and then %ss", v, old, cur)
		}
	}

	if err := lg.Seal(); err != nil {
		t.Fatal(err)
	}
	res, err := lg.Compact(CompactionPolicy{})
	if err != nil || res.Deduped != 0 || res.RecordsOut != res.RecordsIn || res.Gen == 0 {
		t.Fatalf("compaction = %+v, %v; want every record rewritten as it was, and published", res, err)
	}
	answers("compacted", lg, 3)
	for _, v := range segVersions(t, dir) {
		if strings.Trim(v, cur) != "" {
			t.Fatalf("segment versions after compaction %q, want all %s", v, cur)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	opts := fixtureOptions()
	opts.ReadOnly = true
	ro, err := OpenSharded(dir, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	answers("reopened", ro, 3)
}

// TestLegacyHeaderBounds: every record of the version-2 and version-3
// fixtures carries in its header exactly the bounds the walk that validates
// its payload derives — so that walk is the one source of bounds for every
// version, and a read skips the 24 header bytes (legacyBoundsSize).
func TestLegacyHeaderBounds(t *testing.T) {
	for _, fixture := range []string{v2Fixture, v3Fixture} {
		records := 0
		for name, data := range treeFiles(t, fixture) {
			if filepath.Ext(name) != ".log" {
				continue
			}
			v, pos := data[6], headerSize
			for body, _, next, ok := nextRecord(data, pos); ok; body, _, next, ok = nextRecord(data, pos) {
				devLen, u := int(binary.LittleEndian.Uint16(body)), binary.LittleEndian.Uint32
				h := body[2+devLen:]
				header := trajstore.Bounds{T0: u(h), T1: u(h[4:]),
					MinLat: int32(u(h[8:])), MinLon: int32(u(h[12:])), MaxLat: int32(u(h[16:])), MaxLon: int32(u(h[20:]))}
				_, _, tr, err := openRecord(nil, body, v)
				if err != nil || tr.Bounds() != header {
					t.Errorf("%s/%s at %d: header bounds %+v, the payload's %+v (%v)", fixture, name, pos, header, tr.Bounds(), err)
				}
				records, pos = records+1, next
			}
			if pos != len(data) {
				t.Fatalf("%s/%s: a record at %d does not frame", fixture, name, pos)
			}
		}
		if records < 20 {
			t.Fatalf("%s: %d records checked", fixture, records)
		}
		t.Logf("%s: %d records, header bounds all the payload's", fixture, records)
	}
}
