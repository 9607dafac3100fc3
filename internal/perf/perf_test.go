package perf

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestBatterySmoke runs the full sweep at smoke scale with best-of-2
// repetitions — every battery feature on one pass. The per-case checks pin the properties the
// BENCH artifact and its comparator rely on.
func TestBatterySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("battery smoke is a multi-second sweep")
	}
	rep := RunBattery(Options{Scale: ScaleSmoke, Reps: 2})

	want := len(cases())
	if len(rep.Cases) != want {
		t.Fatalf("got %d cases, want %d", len(rep.Cases), want)
	}
	var events uint64
	var tasks int64
	for _, c := range rep.Cases {
		if c.Events == 0 {
			t.Errorf("%s: fired no events", c.Name)
		}
		if c.WallSec <= 0 {
			t.Errorf("%s: non-positive wall time %v", c.Name, c.WallSec)
		}
		if strings.HasPrefix(c.Name, "batch/") && c.Tasks == 0 {
			t.Errorf("%s: batch case reported no task launches", c.Name)
		}
		events += c.Events
		tasks += c.Tasks
	}
	if rep.Total.Events != events {
		t.Errorf("total events %d != case sum %d", rep.Total.Events, events)
	}
	if rep.Total.Tasks != tasks {
		t.Errorf("total tasks %d != case sum %d", rep.Total.Tasks, tasks)
	}
	if rep.Reps != 2 {
		t.Errorf("report reps %d, want 2", rep.Reps)
	}

	// The counts must be byte-reproducible: a second battery at the same
	// scale fires identical events and tasks per case.
	again := RunBattery(Options{Scale: ScaleSmoke})
	for i, c := range rep.Cases {
		if again.Cases[i].Events != c.Events || again.Cases[i].Tasks != c.Tasks {
			t.Errorf("%s: counts drifted across batteries: %d/%d then %d/%d",
				c.Name, c.Events, c.Tasks, again.Cases[i].Events, again.Cases[i].Tasks)
		}
	}
}

func sampleReport() *Report {
	r := &Report{
		Schema: SchemaV1,
		Scale:  ScaleSmoke,
		Reps:   3,
		Cases: []CaseResult{
			newCaseResult("a", Measurement{Wall: 1, Events: 1000, Tasks: 10, Allocs: 500}),
			newCaseResult("b", Measurement{Wall: 2, Events: 4000, Tasks: 0, Allocs: 100}),
		},
	}
	r.Total = r.aggregate()
	return r
}

func TestReportRoundTrip(t *testing.T) {
	rep := sampleReport()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", rep, got)
	}

	if _, err := ReadReport(strings.NewReader(`{"schema":"bogus/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}

	// The committed baseline decodes and covers every case.
	base, err := ReadReportFile("../../BENCH_19.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Cases) != len(cases()) {
		t.Fatalf("BENCH_19.json: %d cases, want %d", len(base.Cases), len(cases()))
	}

	// An artifact carrying fields this version no longer writes still
	// decodes: unknown fields are ignored.
	old, err := ReadReport(strings.NewReader(`{"schema":"` + SchemaV1 + `","baseline_kernel":"x",` +
		`"cases":[{"name":"kernel/event-loop","events":3,"speedup":3.7,"unopt_wall_sec":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Cases) != 1 || old.Cases[0].Events != 3 {
		t.Fatalf("report with unknown fields decoded as %+v", old)
	}
}

// TestCompare pins the comparator's gates: scale mismatch, missing
// case, deterministic-count drift, and the events/sec floor.
func TestCompare(t *testing.T) {
	base := sampleReport()

	if v := Compare(base, sampleReport(), 0.15); len(v) != 0 {
		t.Fatalf("identical reports flagged: %v", v)
	}

	cur := sampleReport()
	cur.Scale = ScaleStandard
	if v := Compare(base, cur, 0.15); len(v) != 1 || !strings.Contains(v[0], "scale") {
		t.Fatalf("scale mismatch not flagged: %v", v)
	}

	cur = sampleReport()
	cur.Cases = cur.Cases[:1]
	if v := Compare(base, cur, 0.15); len(v) == 0 || !strings.Contains(v[0]+v[len(v)-1], "missing") {
		t.Fatalf("missing case not flagged: %v", v)
	}

	cur = sampleReport()
	cur.Cases[0].Events += 7
	if v := Compare(base, cur, 0.15); len(v) == 0 || !strings.Contains(strings.Join(v, " "), "event count changed") {
		t.Fatalf("count drift not flagged: %v", v)
	}

	// 10% slower at a 15% threshold passes; 30% slower fails.
	cur = sampleReport()
	cur.Cases[0].EventsPerSec = base.Cases[0].EventsPerSec * 0.9
	if v := Compare(base, cur, 0.15); len(v) != 0 {
		t.Fatalf("10%% slowdown flagged at 15%% threshold: %v", v)
	}
	cur.Cases[0].EventsPerSec = base.Cases[0].EventsPerSec * 0.7
	if v := Compare(base, cur, 0.15); len(v) != 1 || !strings.Contains(v[0], "regressed") {
		t.Fatalf("30%% slowdown not flagged: %v", v)
	}

	// allocs/event is gated with 15% relative + 0.1 absolute slack.
	cur = sampleReport()
	cur.Cases[0].AllocsPerEvent = base.Cases[0].AllocsPerEvent + 0.09
	if v := Compare(base, cur, 0.15); len(v) != 0 {
		t.Fatalf("within-slack alloc growth flagged: %v", v)
	}
	cur.Cases[0].AllocsPerEvent = base.Cases[0].AllocsPerEvent*2 + 0.2
	if v := Compare(base, cur, 0.15); len(v) != 1 || !strings.Contains(v[0], "allocs/event") {
		t.Fatalf("alloc regression not flagged: %v", v)
	}
}
