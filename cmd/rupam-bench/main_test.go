package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildBench builds the command into a temporary directory and returns
// the binary's path and that directory.
func buildBench(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "rupam-bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestStreamingExperimentCLI drives the built binary end to end: the
// streaming experiment must validate its seed count, pass its placement
// gate on the default sweep, and emit the CSV and JSON artifacts CI
// uploads.
func TestStreamingExperimentCLI(t *testing.T) {
	bin, dir := buildBench(t)

	out, err := exec.Command(bin, "-experiment", "streaming", "-streaming-seeds", "-1").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("negative -streaming-seeds: want exit 2, got %v\n%s", err, out)
	}

	csvDir := filepath.Join(dir, "csv")
	jsonPath := filepath.Join(dir, "streaming.json")
	out, err = exec.Command(bin, "-experiment", "streaming",
		"-csv", csvDir, "-json", jsonPath).CombinedOutput()
	if err != nil {
		t.Fatalf("streaming experiment failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "placement gate holds") {
		t.Fatalf("gate verdict missing from output:\n%s", out)
	}

	csv, err := os.ReadFile(filepath.Join(csvDir, "streaming_throughput.csv"))
	if err != nil {
		t.Fatalf("CSV artifact not written: %v", err)
	}
	if !strings.HasPrefix(string(csv), "placer,seed,throughput_hz") {
		t.Fatalf("CSV header wrong:\n%s", csv[:120])
	}
	j, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	// A clean report counts zero violations and omits gate_violations.
	if !strings.Contains(string(j), "\"violations\": 0") ||
		strings.Contains(string(j), "\"gate_violations\"") {
		t.Fatalf("JSON artifact not clean:\n%s", j)
	}
}

// TestFinishWritesReportAndFails: a sweep with violations still writes
// its JSON report, and its exit code is 1; a clean one exits 0.
func TestFinishWritesReportAndFails(t *testing.T) {
	dir := t.TempDir()
	write := func(w io.Writer) error {
		_, err := fmt.Fprintln(w, `{"violations": 2}`)
		return err
	}
	path := filepath.Join(dir, "report.json")
	var stderr bytes.Buffer
	if code := finish(&stderr, path, write, 2, "sweep found %d violations"); code != 1 {
		t.Fatalf("exit code %d with violations, want 1", code)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "{\"violations\": 2}\n" {
		t.Fatalf("report not written: %q, %v", got, err)
	}
	if !strings.Contains(stderr.String(), "sweep found 2 violations") {
		t.Fatalf("verdict missing from stderr: %q", stderr.String())
	}

	stderr.Reset()
	if code := finish(&stderr, filepath.Join(dir, "clean.json"), write, 0, "unused %d"); code != 0 || stderr.Len() != 0 {
		t.Fatalf("clean sweep: exit code %d, stderr %q", code, stderr.String())
	}
	if code := finish(&stderr, filepath.Join(dir, "missing", "r.json"), write, 0, "unused %d"); code != 1 {
		t.Fatalf("unwritable report: exit code %d, want 1", code)
	}
}

// TestFailingRunKeepsProfiles: a run that fails after profiling started
// must still leave complete profiles behind.
func TestFailingRunKeepsProfiles(t *testing.T) {
	bin, dir := buildBench(t)
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, tr := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "trace.out")
	out, err := exec.Command(bin, "-experiment", "fig2", "-csv", filepath.Join(notDir, "csv"),
		"-cpuprofile", cpu, "-trace", tr).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("unwritable -csv: want exit 1, got %v\n%s", err, out)
	}
	for _, p := range []string{cpu, tr} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s empty or missing after a failing run: %v", filepath.Base(p), err)
		}
	}
}
