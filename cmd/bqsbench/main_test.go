package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trajcomp/bqs/internal/eval"
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

// TestSmokePaperQuick runs one paper experiment at the smoke scale and
// checks the series -csv writes: one row per tolerance of each dataset.
func TestSmokePaperQuick(t *testing.T) {
	bin := buildCmd(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-quick", "-exp", "fig6", "-csv", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("bqsbench -quick -exp fig6: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 6 — pruning power, bat data") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	for name, tols := range map[string][]float64{
		"fig6_bat.csv":     eval.BatTolerances(),
		"fig6_vehicle.csv": eval.VehicleTolerances(),
	} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		if lines[0] != "tolerance,pruning" || len(lines) != 1+len(tols) {
			t.Errorf("%s: header %q and %d rows, want \"tolerance,pruning\" and %d:\n%s", name, lines[0], len(lines)-1, len(tols), b)
		}
	}
}

// TestSmokeUnknownExperiment: a name no experiment answers to is refused
// before any dataset is generated, naming the valid ones.
func TestSmokeUnknownExperiment(t *testing.T) {
	bin := buildCmd(t)
	out, err := exec.Command(bin, "-quick", "-exp", "fig9").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("bqsbench -exp fig9: err = %v, want exit status 2\n%s", err, out)
	}
	for _, want := range append([]string{`"fig9"`}, experiments...) {
		if !strings.Contains(string(out), want) {
			t.Errorf("%s missing from output:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "generating datasets") {
		t.Errorf("datasets generated before the name was checked:\n%s", out)
	}
}
