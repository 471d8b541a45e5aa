package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/trajstore"
	"github.com/trajcomp/bqs/internal/trajstore/segmentlog"
)

func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// seedLog writes a small two-device log, returning its directory.
func seedLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(base int) []trajstore.GeoKey {
		out := make([]trajstore.GeoKey, 5)
		for i := range out {
			out[i] = trajstore.GeoKey{
				Lat: float64(base*100+i) / 1e7,
				Lon: float64(-base*100-i) / 1e7,
				T:   uint32(base*1000 + i*10),
			}
		}
		return out
	}
	if err := lg.Append("alpha", keys(1)); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append("beta", keys(2)); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSmokeRecoverList(t *testing.T) {
	bin := buildCmd(t)
	dir := seedLog(t)
	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("bqsrecover: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "beta") {
		t.Fatalf("device listing incomplete:\n%s", s)
	}
}

func TestSmokeRecoverQueryCSV(t *testing.T) {
	bin := buildCmd(t)
	dir := seedLog(t)
	cmd := exec.Command(bin, "-dir", dir, "-device", "alpha", "-csv")
	cmd.Stderr = nil
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bqsrecover -device: %v", err)
	}
	lines := strings.Count(string(out), "\n")
	if lines != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", lines, out)
	}
	if !strings.HasPrefix(string(out), "0.0000100,-0.0000100,1000") {
		t.Fatalf("unexpected first CSV line:\n%s", out)
	}
}

// TestSmokeRecoverWindow: the spatio-temporal query mode finds the
// device whose cell the window covers, prints its records (CSV rows
// carry the device), and exits 1 on an empty window.
func TestSmokeRecoverWindow(t *testing.T) {
	bin := buildCmd(t)
	dir := seedLog(t)
	// alpha's keys sit near (1e-5°, -1e-5°); beta's near (2e-5°, -2e-5°).
	cmd := exec.Command(bin, "-dir", dir, "-window", "-0.0000150,0.0000050,-0.0000050,0.0000150", "-csv")
	cmd.Stderr = nil
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bqsrecover -window: %v", err)
	}
	s := string(out)
	if !strings.Contains(s, "alpha,") || strings.Contains(s, "beta,") {
		t.Fatalf("window query selected the wrong devices:\n%s", s)
	}
	// Time restriction excludes alpha (its times are 1000..1040).
	if out, err := exec.Command(bin, "-dir", dir, "-window", "-1,-1,1,1", "-t0", "5000", "-t1", "6000").CombinedOutput(); err == nil {
		t.Fatalf("empty window query should exit non-zero:\n%s", out)
	}
	// A malformed window is rejected.
	if out, err := exec.Command(bin, "-dir", dir, "-window", "1,2,3").CombinedOutput(); err == nil {
		t.Fatalf("malformed -window accepted:\n%s", out)
	}
}

// TestSmokeRecoverTornTail runs the command against a crash-damaged log.
// The default read-only mode must report the torn tail WITHOUT touching
// the file (it could belong to a live engine about to flush); -repair
// must truncate it in place.
func TestSmokeRecoverTornTail(t *testing.T) {
	bin := buildCmd(t)
	dir := seedLog(t)
	seg := filepath.Join(dir, "shard-000", "seg-00000001.log")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := fi.Size() - 5
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("bqsrecover on torn log: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "detected") || !strings.Contains(s, "alpha") || strings.Contains(s, "beta") {
		t.Fatalf("torn-tail read-only output wrong:\n%s", s)
	}
	if fi, err = os.Stat(seg); err != nil || fi.Size() != torn {
		t.Fatalf("read-only run modified the segment file (size %d, want %d): %v", fi.Size(), torn, err)
	}

	out, err = exec.Command(bin, "-dir", dir, "-repair").CombinedOutput()
	if err != nil {
		t.Fatalf("bqsrecover -repair: %v\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "recovered") || !strings.Contains(s, "alpha") {
		t.Fatalf("torn-tail repair output wrong:\n%s", s)
	}
	if fi, err = os.Stat(seg); err != nil || fi.Size() >= torn {
		t.Fatalf("-repair did not truncate the torn tail (size %d): %v", fi.Size(), err)
	}
}

// TestSmokeRecoverCompact exercises -compact end to end: chunked records
// merge, disk bytes shrink, and the compacted log still answers queries.
func TestSmokeRecoverCompact(t *testing.T) {
	bin := buildCmd(t)
	dir := t.TempDir()
	// A rotation threshold of two records: the first two chunks land in a
	// sealed segment, the third stays in the active one.
	lg, err := segmentlog.OpenSharded(dir, 1, segmentlog.Options{MaxSegmentBytes: 50})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]trajstore.GeoKey, 13)
	for i := range keys {
		keys[i] = trajstore.GeoKey{Lat: float64(i) / 1e7, Lon: float64(2*i) / 1e7, T: uint32(100 + i)}
	}
	// Three chunks overlapping by one key, the engine's trail shape.
	for _, c := range [][2]int{{0, 5}, {4, 9}, {8, 13}} {
		if err := lg.Append("gamma", keys[c[0]:c[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if st := lg.Stats(); st.Segments != 2 || st.Records != 3 {
		t.Fatalf("fixture: %+v, want two chunks sealed and one in the active segment", st)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-dir", dir, "-compact").CombinedOutput()
	if err != nil {
		t.Fatalf("bqsrecover -compact: %v\n%s", err, out)
	}
	if s := string(out); !strings.Contains(s, "merged") {
		t.Fatalf("compaction report missing:\n%s", s)
	}
	// The log's generation is a sum over shards (bqs_log_generation), a
	// pass's over the shards that published: the tool prints neither, so
	// it cannot print two figures for one log.
	if s := string(out); strings.Contains(s, "generation") {
		t.Fatalf("bqsrecover -compact prints a generation:\n%s", s)
	}

	out, err = exec.Command(bin, "-dir", dir, "-device", "gamma", "-csv").Output()
	if err != nil {
		t.Fatalf("query after compaction: %v", err)
	}
	// One record, the last chunk — still in the active segment when the tool
	// opened the log — included: each key point once, no boundary twice.
	if lines := strings.Count(string(out), "\n"); lines != len(keys) {
		t.Fatalf("compacted log returned %d CSV points, want %d:\n%s", lines, len(keys), out)
	}
	out, err = exec.Command(bin, "-dir", dir, "-device", "gamma").Output()
	if err != nil || strings.Count(string(out), "trajectory ") != 1 {
		t.Fatalf("after -compact the device lists as (%v), want one trajectory:\n%s", err, out)
	}
}

func TestSmokeRecoverMissingDir(t *testing.T) {
	bin := buildCmd(t)
	if err := exec.Command(bin).Run(); err == nil {
		t.Fatal("missing -dir accepted")
	}
}

// TestSmokeRecoverNonexistentDir: a typo'd path must error, not be
// created as a fresh empty log.
func TestSmokeRecoverNonexistentDir(t *testing.T) {
	bin := buildCmd(t)
	dir := filepath.Join(t.TempDir(), "no-such-log")
	if err := exec.Command(bin, "-dir", dir).Run(); err == nil {
		t.Fatal("nonexistent directory accepted")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("diagnostic run created the directory: %v", err)
	}
}

func TestSmokeRecoverUnknownDevice(t *testing.T) {
	bin := buildCmd(t)
	dir := seedLog(t)
	if err := exec.Command(bin, "-dir", dir, "-device", "nope").Run(); err == nil {
		t.Fatal("unknown device should exit non-zero")
	}
}
