package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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

// TestSmokePaperQuick runs one paper experiment at the smoke scale.
func TestSmokePaperQuick(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-quick", "-exp", "fig6").CombinedOutput()
	if err != nil {
		t.Fatalf("bqsbench -quick -exp fig6: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 6 — pruning power, bat data") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestSmokeServeLoopback drives the wire load generator against its
// in-process server and checks that -persist leaves a log another
// process can open — how the verify notes and bqsrecover's docs make one.
func TestSmokeServeLoopback(t *testing.T) {
	bin := buildCmd(t)
	dir := filepath.Join(t.TempDir(), "data")
	out, err := exec.Command(bin, "-serve", "-devices", "8", "-fixes", "200", "-shards", "2", "-persist", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("bqsbench -serve: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"server ingest: 1600 fixes", "server query (device):", "server query (full window):"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing from output:\n%s", want, s)
		}
	}
	// The server keeps one log per tenant; the load generator's is "bench".
	lg, err := segmentlog.OpenSharded(filepath.Join(dir, "bench"), 0, segmentlog.Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("reopening the persisted log: %v", err)
	}
	defer lg.Close()
	if lg.NumShards() != 2 {
		t.Fatalf("log has %d shards, want 2", lg.NumShards())
	}
	if st := lg.Stats(); st.Records == 0 {
		t.Fatalf("persisted log is empty: %+v", st)
	}
}

// TestSmokeFlagValidation covers the flag combinations that cannot mean
// anything: both wire modes at once, and in-process-server settings
// without the in-process server.
func TestSmokeFlagValidation(t *testing.T) {
	bin := buildCmd(t)
	for _, args := range [][]string{
		{"-serve", "-client", "127.0.0.1:1"},
		{"-persist", t.TempDir()},
		{"-trail", "16"},
		{"-segbytes", "65536"},
		{"-client", "127.0.0.1:1", "-persist", t.TempDir()},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("bqsbench %v: err = %v, want exit status 2\n%s", args, err, out)
		}
	}
}
