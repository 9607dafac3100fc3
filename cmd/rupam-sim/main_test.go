package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rupam/internal/faults"
	"rupam/internal/wal"
)

func TestValidateStreamingFlags(t *testing.T) {
	cases := []struct {
		name      string
		streaming bool
		placer    string
		sloMs     float64
		explicit  []string
		wantErr   string
	}{
		{"defaults", false, "rupam", 2000, nil, ""},
		{"streaming defaults", true, "rupam", 2000, []string{"streaming"}, ""},
		{"streaming with placer and slo", true, "default", 500,
			[]string{"streaming", "placer", "slo-ms"}, ""},
		{"streaming with trace and chaos", true, "resource", 2000,
			[]string{"streaming", "placer", "trace", "chaos-seed", "seed"}, ""},
		{"unknown placer", true, "storm", 2000, []string{"streaming", "placer"},
			"unknown placer"},
		{"unknown placer without streaming", false, "storm", 2000, []string{"placer"},
			"unknown placer"},
		{"placer without streaming", false, "default", 2000, []string{"placer"},
			"applies only to a streaming run"},
		{"slo without streaming", false, "rupam", 500, []string{"slo-ms"},
			"applies only to a streaming run"},
		{"nonpositive slo", true, "rupam", 0, []string{"streaming", "slo-ms"},
			"-slo-ms must be positive"},
		{"streaming with workload", true, "rupam", 2000,
			[]string{"streaming", "workload"}, "does not apply to a streaming run"},
		{"streaming with compare", true, "rupam", 2000,
			[]string{"streaming", "compare"}, "does not apply to a streaming run"},
		{"streaming with wal", true, "rupam", 2000,
			[]string{"streaming", "wal"}, "does not apply to a streaming run"},
		{"streaming with drivers", true, "rupam", 2000,
			[]string{"streaming", "drivers"}, "does not apply to a streaming run"},
	}
	for _, tc := range cases {
		explicit := map[string]bool{}
		for _, f := range tc.explicit {
			explicit[f] = true
		}
		err := validateStreamingFlags(tc.streaming, tc.placer, tc.sloMs, explicit)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestEventPlanFlags covers both NODE:AT:DURATION flags: each keeps its
// own fault kind and error wording.
func TestEventPlanFlags(t *testing.T) {
	newPreempt := func() *eventPlan {
		return &eventPlan{kind: faults.SpotPreempt, dur: "GRACE", when: "notice time", length: "grace window"}
	}
	newAgentCrash := func() *eventPlan {
		return &eventPlan{kind: faults.AgentCrash, dur: "DOWNTIME", when: "crash time", length: "downtime"}
	}
	cases := []struct {
		name    string
		plan    func() *eventPlan
		in      string
		want    faults.Event
		wantErr string
	}{
		{"preempt valid", newPreempt, "thor1:10:2.5",
			faults.Event{Kind: faults.SpotPreempt, Node: "thor1", At: 10, Duration: 2.5}, ""},
		{"preempt arity", newPreempt, "thor1:10", faults.Event{}, `want NODE:AT:GRACE, got "thor1:10"`},
		{"preempt empty node", newPreempt, ":10:2", faults.Event{}, `want NODE:AT:GRACE, got ":10:2"`},
		{"preempt negative time", newPreempt, "thor1:-1:2", faults.Event{},
			`notice time "-1" must be a non-negative number of seconds`},
		{"preempt zero grace", newPreempt, "thor1:10:0", faults.Event{},
			`grace window "0" must be a positive number of seconds`},
		{"preempt NaN time", newPreempt, "hulk1:NaN:5", faults.Event{},
			`notice time "NaN" must be a non-negative number of seconds`},
		{"preempt infinite time", newPreempt, "hulk1:+Inf:5", faults.Event{},
			`notice time "+Inf" must be a non-negative number of seconds`},
		{"preempt NaN grace", newPreempt, "hulk1:5:NaN", faults.Event{},
			`grace window "NaN" must be a positive number of seconds`},
		{"preempt infinite grace", newPreempt, "hulk1:5:Inf", faults.Event{},
			`grace window "Inf" must be a positive number of seconds`},
		{"agent-crash valid", newAgentCrash, "hulk2:0:3",
			faults.Event{Kind: faults.AgentCrash, Node: "hulk2", At: 0, Duration: 3}, ""},
		{"agent-crash arity", newAgentCrash, "hulk2:1:2:3", faults.Event{},
			`want NODE:AT:DOWNTIME, got "hulk2:1:2:3"`},
		{"agent-crash empty node", newAgentCrash, ":1:2", faults.Event{}, `want NODE:AT:DOWNTIME, got ":1:2"`},
		{"agent-crash negative time", newAgentCrash, "hulk2:-0.5:2", faults.Event{},
			`crash time "-0.5" must be a non-negative number of seconds`},
		{"agent-crash negative downtime", newAgentCrash, "hulk2:1:-4", faults.Event{},
			`downtime "-4" must be a positive number of seconds`},
		{"agent-crash NaN downtime", newAgentCrash, "hulk2:1:nan", faults.Event{},
			`downtime "nan" must be a positive number of seconds`},
	}
	for _, tc := range cases {
		p := tc.plan()
		err := p.Set(tc.in)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
			}
			if len(p.events) != 0 {
				t.Errorf("%s: a rejected value added %v", tc.name, p.events)
			}
			continue
		}
		if err != nil || len(p.events) != 1 || p.events[0] != tc.want {
			t.Errorf("%s: got %v, %v; want %v", tc.name, p.events, err, tc.want)
		}
		if got := p.String(); got != tc.in {
			t.Errorf("%s: String() = %q, want %q", tc.name, got, tc.in)
		}
	}
}

// buildCLI compiles the command under test once per test run.
func buildCLI(t *testing.T, pkgDir string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cli")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = pkgDir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStreamingCLI drives the built binary: bad flag combinations must
// exit 2 with a diagnostic, and a plain streaming run must exit 0 and
// report throughput.
func TestStreamingCLI(t *testing.T) {
	bin := buildCLI(t, ".")

	bad := [][]string{
		{"-streaming", "-placer", "storm"},
		{"-placer", "rupam"},
		{"-slo-ms", "100"},
		{"-streaming", "-slo-ms", "-5"},
		{"-streaming", "-workload", "WC"},
		{"-streaming", "-compare"},
		{"-streaming", "-scheduler", "spark"},
		{"-streaming", "-drivers", "2"},
	}
	for _, args := range bad {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "rupam-sim:") {
			t.Errorf("%v: no diagnostic printed:\n%s", args, out)
		}
	}

	out, err := exec.Command(bin, "-streaming", "-seed", "2", "-placer", "resource", "-slo-ms", "1500").CombinedOutput()
	if err != nil {
		t.Fatalf("streaming run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"streaming stream-2 under resource placement", "throughput:", "SLO 1500ms"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("streaming report missing %q:\n%s", want, out)
		}
	}
}

// TestAgentCrashCLI drives the built binary through the -agent-crash
// flag: malformed plans and non-federated combinations must exit 2 with
// a diagnostic, and a valid federated run must exit 0 and report the
// agent fault domain.
func TestAgentCrashCLI(t *testing.T) {
	bin := buildCLI(t, ".")

	bad := [][]string{
		// Federated-only flag without -drivers.
		{"-agent-crash", "thor1:2:3"},
		// Malformed plan strings.
		{"-drivers", "2", "-agent-crash", "thor1:2"},
		{"-drivers", "2", "-agent-crash", "thor1:-1:3"},
		{"-drivers", "2", "-agent-crash", "thor1:2:0"},
		{"-drivers", "2", "-agent-crash", "thor1:2:-4"},
		{"-drivers", "2", "-agent-crash", "thor1:x:3"},
		{"-drivers", "2", "-agent-crash", "thor1:NaN:3"},
		{"-drivers", "2", "-agent-crash", "thor1:2:+Inf"},
		// Unknown node in the hydra cluster.
		{"-drivers", "2", "-agent-crash", "nohost:2:3"},
		// Streaming runs have no placement agents.
		{"-streaming", "-agent-crash", "thor1:2:3"},
		// Overlapping crash windows on the same node.
		{"-drivers", "2", "-agent-crash", "thor1:2:10", "-agent-crash", "thor1:5:3"},
	}
	for _, args := range bad {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
		// Post-parse validation prints "rupam-sim: ..."; malformed plan
		// strings are rejected at parse time by the flag package itself.
		if s := string(out); !strings.Contains(s, "rupam-sim:") &&
			!strings.Contains(s, "invalid value") {
			t.Errorf("%v: no diagnostic printed:\n%s", args, out)
		}
	}

	out, err := exec.Command(bin,
		"-drivers", "2", "-agent-crash", "thor1:2:3",
		"-input", "0.25", "-partitions", "8", "-iterations", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("federated agent-crash run failed: %v\n%s", err, out)
	}
	for _, want := range []string{"agents: 1 crashes, 1 restarts", "fingerprint"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("federated report missing %q:\n%s", want, out)
		}
	}
}

// TestBatchCLIRejects drives the built binary through batch flag
// combinations that must exit 2 with a diagnostic before any run starts:
// an invalid assembled fault plan, and -chardb where no RUPAM single run
// would read it.
func TestBatchCLIRejects(t *testing.T) {
	bin := buildCLI(t, ".")

	bad := [][]string{
		// Overlapping preemption notices on one node.
		{"-workload", "TeraSort", "-input", "2", "-partitions", "16",
			"-preempt", "thor1:10:30", "-preempt", "thor1:20:30"},
		// -chardb is read only by a single RUPAM run.
		{"-chardb", filepath.Join(t.TempDir(), "db.json"), "-scheduler", "spark"},
		{"-chardb", filepath.Join(t.TempDir(), "db.json"), "-compare"},
	}
	for _, args := range bad {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%v: want exit 2, got %v\n%s", args, err, out)
		}
		if s := string(out); !strings.Contains(s, "rupam-sim:") || strings.Contains(s, "panic") {
			t.Errorf("%v: want a diagnostic and no panic:\n%s", args, out)
		}
	}
}

// TestWALFileHoldsFullStream drives the built binary through a driver
// crash with -wal: the file must be the full stream the run reports (its
// length and FNV-64a), although the driver kept only the tail since its
// last checkpoint, and replaying the file must give the state the run's
// tail replayed to.
func TestWALFileHoldsFullStream(t *testing.T) {
	bin := buildCLI(t, ".")
	path := filepath.Join(t.TempDir(), "driver.wal")
	out, err := exec.Command(bin, "-workload", "LR", "-scheduler", "spark",
		"-wal", path, "-crash-at", "10").CombinedOutput()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "driver: 1 crashes, 1 recoveries") {
		t.Fatalf("the driver crash did not fire:\n%s", out)
	}
	var written int64
	var stream uint64
	var state string
	for _, line := range strings.Split(string(out), "\n") {
		if n, _ := fmt.Sscanf(line, "wal: %d bytes, stream fnv64a %x, replayed state fnv64a %s",
			&written, &stream, &state); n == 3 {
			break
		}
	}
	if state == "" {
		t.Fatalf("no stream summary printed:\n%s", out)
	}

	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(file)) != written {
		t.Errorf("file holds %d bytes, the run wrote %d", len(file), written)
	}
	h := fnv.New64a()
	h.Write(file)
	if h.Sum64() != stream {
		t.Errorf("file fnv64a %016x, stream %016x", h.Sum64(), stream)
	}
	st, n, err := wal.Replay(bytes.NewReader(file))
	if err != nil || n == 0 {
		t.Fatalf("file replays %d records (%v)", n, err)
	}
	h = fnv.New64a()
	h.Write(st.Encode())
	if got := fmt.Sprintf("%016x", h.Sum64()); got != state {
		t.Errorf("file replays to state %s, the retained tail to %s", got, state)
	}
}
