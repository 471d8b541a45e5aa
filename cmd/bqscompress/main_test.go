package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/stream"
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

// writeZigZag writes a trace that needs several key points: straight
// runs with sharp turns every 20 samples.
func writeZigZag(t *testing.T, path string, n int) {
	t.Helper()
	var sb strings.Builder
	y := 0.0
	for i := 0; i < n; i++ {
		if i%20 == 0 {
			y += 50
		}
		fmt.Fprintf(&sb, "%.3f,%.3f,%d\n", float64(i)*10, y, i)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeCompress runs every registered name and dp through the command:
// each keeps between 1 and n−1 of the zigzag's fixes, and the worst
// deviation it prints, under the distance that name bounds, is within d.
func TestSmokeCompress(t *testing.T) {
	const n, d = 100, 5.0
	bin := buildCmd(t)
	dir := t.TempDir()
	in := filepath.Join(dir, "in.csv")
	writeZigZag(t, in, n)
	for _, algo := range append(stream.Names(), "dp") {
		outFile := filepath.Join(dir, "out_"+algo+".csv")
		out, err := exec.Command(bin, "-algo", algo, "-d", fmt.Sprint(d), "-o", outFile, in).CombinedOutput()
		if err != nil {
			t.Fatalf("bqscompress -algo %s: %v\n%s", algo, err, out)
		}
		data, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		keys := strings.Count(string(data), "\n")
		if keys == 0 || keys >= n {
			t.Errorf("%s: %d key points from %d samples", algo, keys, n)
		}
		m := worstRE.FindSubmatch(out)
		if m == nil {
			t.Fatalf("%s: no worst deviation in\n%s", algo, out)
		}
		if worst, _ := strconv.ParseFloat(string(m[1]), 64); worst > d {
			t.Errorf("%s: worst deviation %g m, want ≤ %g\n%s", algo, worst, d, out)
		}
	}
}

var worstRE = regexp.MustCompile(`worst deviation ([0-9.]+) m`)

// TestSmokeCompressUnknownAlgo: an unknown -algo exits 2 naming every
// algorithm, and before the input is opened — the path does not exist, and
// no file error is printed.
func TestSmokeCompressUnknownAlgo(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-algo", "nope", "/nonexistent.csv").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bqscompress -algo nope: err = %v, want exit status 2\n%s", err, out)
	}
	for _, name := range append(stream.Names(), "dp") {
		if !strings.Contains(string(out), name) {
			t.Errorf("message does not name %q:\n%s", name, out)
		}
	}
	if strings.Contains(string(out), "nonexistent") {
		t.Errorf("input opened before the name was checked:\n%s", out)
	}
}

func TestSmokeCompressBadInput(t *testing.T) {
	bin := buildCmd(t)
	in := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(in, []byte("not,a\nnumber\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin, in).Run(); err == nil {
		t.Fatal("malformed input accepted")
	}
}
