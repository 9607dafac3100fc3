package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/spark"
	"rupam/internal/tracing"
	"rupam/internal/wal"
)

// traceEvent is the part of a Chrome trace event the audit checks read.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

// auditedRun runs the soak workload under plan with a Collector attached
// and returns the result with the Collector's exported events.
func auditedRun(t *testing.T, scheduler string, seed uint64, cfg spark.Config) (*spark.Result, []traceEvent) {
	t.Helper()
	col := tracing.NewCollector()
	cfg.Tracer = col
	rt, app := experiments.NewRun(experiments.RunSpec{
		Workload: soakWorkload, Params: soakParams, Scheduler: scheduler, Seed: seed,
		Spark: cfg,
	})
	res := rt.Run(app)
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct{ TraceEvents []traceEvent }
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	return res, tr.TraceEvents
}

// checkClosedSpans checks that every completed job's span closed at the
// job's end, every completed stage's span closed by the run's end, and
// every other job and stage span is exported open.
func checkClosedSpans(t *testing.T, res *spark.Result, evs []traceEvent) {
	t.Helper()
	spans := map[string]traceEvent{}
	for _, e := range evs {
		if e.Ph == "X" {
			spans[e.Name] = e
		}
	}
	// closedEnd returns the end of a completed job's or stage's span and
	// checks that the span is exported open exactly when it did not
	// complete.
	closedEnd := func(name string, done bool) (end float64, closed bool) {
		e, ok := spans[name]
		if !ok {
			if done {
				t.Errorf("%s: completed, but has no span", name)
			}
			return 0, false
		}
		if open, _ := e.Args["open"].(bool); open == done {
			t.Errorf("%s: completed %v, but its span is exported with open=%v", name, done, open)
		}
		return (e.Ts + e.Dur) / 1e6, done
	}
	for j, job := range res.App.Jobs {
		name := fmt.Sprintf("job %d (%s)", job.ID, job.Name)
		if end, closed := closedEnd(name, j < len(res.JobEnds)); closed && math.Abs(end-res.JobEnds[j]) > 1e-6 {
			t.Errorf("%s: span ends at %v, job ended at %v", name, end, res.JobEnds[j])
		}
		for _, st := range job.Stages {
			name := fmt.Sprintf("stage %d (%s)", st.ID, st.Name)
			if end, closed := closedEnd(name, st.IsComplete()); closed && end > res.Duration+1e-6 {
				t.Errorf("%s: completed, but its span ends at %v, after the run's end %v", name, end, res.Duration)
			}
		}
	}
}

// TestCollectorCarriesAuditTrail checks that the facts the WAL does not
// record, because recovery never folds them, reach the Collector: driver
// crashes, executor losses with their reasons, speculation marks (once
// per task), stage and job ends, and job aborts with their reasons. One
// crash-recovery run with task flakes and one run whose flakes abort it
// cover them all.
func TestCollectorCarriesAuditTrail(t *testing.T) {
	cfg := experiments.HardenedConfig()
	cfg.Faults = faults.RandomSchedule(auditSeed, cluster.HydraNodeNames(), recoveryGen())
	cfg.WAL = wal.New(nil, wal.Options{})
	res, evs := auditedRun(t, experiments.SchedRUPAM, auditSeed, cfg)
	if res.Aborted != nil || res.DriverCrashes == 0 || res.ExecutorsLost == 0 || res.TaskFlakes == 0 {
		t.Fatalf("seed %d: want a completed run with a driver crash, executor losses and flakes; "+
			"aborted %v, %d crashes, %d losses, %d flakes",
			auditSeed, res.Aborted, res.DriverCrashes, res.ExecutorsLost, res.TaskFlakes)
	}
	crashes, losses, marks := 0, 0, map[string]int{}
	for _, e := range evs {
		if e.Ph != "i" {
			continue
		}
		switch {
		case e.Name == "driver crashed":
			crashes++
		case e.Name == "executor lost":
			losses++
			if r, _ := e.Args["reason"].(string); r == "" {
				t.Errorf("executor lost at %vµs without a reason", e.Ts)
			}
		case strings.HasPrefix(e.Name, "speculatable task "):
			marks[e.Name]++
		case e.Name == "job aborted":
			t.Errorf("a completed run logged a job abort: %v", e.Args)
		}
	}
	if crashes != res.DriverCrashes {
		t.Errorf("%d driver-crashed instants, %d crashes", crashes, res.DriverCrashes)
	}
	if losses != res.ExecutorsLost {
		t.Errorf("%d executor-lost instants, %d executors lost", losses, res.ExecutorsLost)
	}
	if len(marks) == 0 {
		t.Error("no speculation mark reached the Collector")
	}
	for name, n := range marks {
		if n != 1 {
			t.Errorf("%q logged %d times, want once", name, n)
		}
	}
	checkClosedSpans(t, res, evs)

	// Every attempt on every node flakes, so the first task to reach the
	// retry budget aborts the job.
	cfg = experiments.HardenedConfig()
	cfg.Faults = &faults.Schedule{}
	for _, node := range cluster.HydraNodeNames() {
		cfg.Faults.Events = append(cfg.Faults.Events,
			faults.Event{Kind: faults.TaskFlake, Node: node, At: 0, Duration: 1000, Factor: 1})
	}
	res, evs = auditedRun(t, experiments.SchedSpark, 3, cfg)
	if res.Aborted == nil {
		t.Fatal("the all-flaking run did not abort")
	}
	var aborts []string
	for _, e := range evs {
		if e.Ph == "i" && e.Name == "job aborted" {
			r, _ := e.Args["reason"].(string)
			aborts = append(aborts, r)
		}
	}
	if len(aborts) != 1 || aborts[0] != res.Aborted.Error() {
		t.Errorf("job-aborted reasons %q, want exactly %q", aborts, res.Aborted.Error())
	}
	checkClosedSpans(t, res, evs)
}

// auditSeed is a recovery plan whose rupam run crashes the driver, loses
// executors, flakes tasks and speculates.
const auditSeed = 3
