package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCmd compiles the command in the current package directory into a
// temp binary. Helper shared in spirit (copied) across the cmd smoke
// tests — each cmd is its own main package.
func buildCmd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cmd.bin")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestSmokeGenerate(t *testing.T) {
	bin := buildCmd(t)
	outFile := filepath.Join(t.TempDir(), "trace.csv")
	out, err := exec.Command(bin, "-model", "walk", "-n", "50", "-seed", "3", "-o", outFile).CombinedOutput()
	if err != nil {
		t.Fatalf("bqsgen: %v\n%s", err, out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 50 {
		t.Fatalf("generated %d lines, want 50", lines)
	}
	for _, line := range strings.SplitN(string(data), "\n", 2)[:1] {
		if len(strings.Split(line, ",")) != 3 {
			t.Fatalf("malformed CSV line %q", line)
		}
	}
}

// TestSmokeGenerateUnknownModel: an unknown -model exits 2 naming every
// model, and writes no trace.
func TestSmokeGenerateUnknownModel(t *testing.T) {
	bin := buildCmd(t)
	outFile := filepath.Join(t.TempDir(), "trace.csv")
	out, err := exec.Command(bin, "-model", "submarine", "-o", outFile).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bqsgen -model submarine: err = %v, want exit status 2\n%s", err, out)
	}
	for _, name := range []string{"bat", "vehicle", "walk"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("message does not name %q:\n%s", name, out)
		}
	}
	if _, err := os.Stat(outFile); !os.IsNotExist(err) {
		t.Errorf("a trace was written (stat: %v)", err)
	}
}
