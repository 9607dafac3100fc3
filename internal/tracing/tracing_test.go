package tracing

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"rupam/internal/simx"
	"rupam/internal/task"
)

// TestNilCollectorIsInert pins the disabled state: every entry point must
// be callable on a nil collector (and the nil attempt/decision handles it
// returns) without panicking or observing anything.
func TestNilCollectorIsInert(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Bind(simx.NewEngine())
	c.RegisterNode("n1", 4)
	c.JobBegin(0, "j")
	c.JobEnd(0)
	c.StageBegin(&task.Stage{ID: 1})
	c.StageEnd(1)
	c.TaskQueued(7)
	c.SpeculatableMarked(7)
	c.ExecutorLost("n1", "test")
	c.ExecutorRejoined("n1")
	c.JobAborted("test")
	c.FaultSpan("n1", "crash", "", 5)

	a := c.AttemptStarted(&task.Task{ID: 7}, &task.Stage{ID: 1}, "n1", "ANY", false)
	if a != nil {
		t.Fatal("nil collector returned a live attempt trace")
	}
	a.Phase("compute")
	a.Finish("success")

	d := c.NewDecision("spark", "n1")
	if d != nil {
		t.Fatal("nil collector returned a live decision")
	}
	d.SetQueue("cpu", 1, 0)
	d.Candidate(7, "ANY", "", "")
	d.Note("ignored %d", 1)
	d.SetWinner(7, "delay-scheduling", "ANY", false)
	d.Commit()

	if c.EventCount() != 0 || c.DecisionCount() != 0 || c.TracedTasks() != 0 {
		t.Fatal("nil collector counted events")
	}
	if err := c.WriteChromeTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("nil collector export should error")
	}
}

// TestNilCollectorAllocatesNothing holds the disabled state to its
// promise: no exported Collector method allocates on a nil receiver, not
// even for the names and argument maps it would have recorded. The table
// must name every exported method.
func TestNilCollectorAllocatesNothing(t *testing.T) {
	var c *Collector
	eng := simx.NewEngine()
	st := &task.Stage{ID: 1}
	tk := &task.Task{ID: 7}
	calls := map[string]func(){
		"AppAdmitted":        func() { c.AppAdmitted("a", "p", 3) },
		"AppArrived":         func() { c.AppArrived("a", "p", "PR") },
		"AppFinished":        func() { c.AppFinished("a", "p", 12.5, true) },
		"AppRejected":        func() { c.AppRejected("a", "p", "full") },
		"AppStarted":         func() { c.AppStarted("a", "p", 1.5) },
		"AttemptStarted":     func() { c.AttemptStarted(tk, st, "n1", "ANY", true) },
		"Bind":               func() { c.Bind(eng) },
		"DecisionCount":      func() { c.DecisionCount() },
		"Decisions":          func() { c.Decisions() },
		"DrainMoved":         func() { c.DrainMoved("a", "n1", "n2", 1, 2, 3) },
		"DriverCrashed":      func() { c.DriverCrashed(1) },
		"DriverRecovered":    func() { c.DriverRecovered(1, 2, 3) },
		"Enabled":            func() { c.Enabled() },
		"EventCount":         func() { c.EventCount() },
		"ExecutorLost":       func() { c.ExecutorLost("n1", "timeout") },
		"ExecutorRejoined":   func() { c.ExecutorRejoined("n1") },
		"Explain":            func() { _ = c.Explain(io.Discard, 7) },
		"FaultSpan":          func() { c.FaultSpan("n1", "crash", "detail", 5) },
		"InstanceAcquired":   func() { c.InstanceAcquired("n1", "spot", 0.5) },
		"InstanceDenied":     func() { c.InstanceDenied(2, 1, 30) },
		"InstanceReleased":   func() { c.InstanceReleased("n1", "idle", 60, 0.5) },
		"JobAborted":         func() { c.JobAborted("budget") },
		"JobBegin":           func() { c.JobBegin(0, "j") },
		"JobEnd":             func() { c.JobEnd(0) },
		"LeaseChanged":       func() { c.LeaseChanged("a", "n1", 4, "grant") },
		"NewDecision":        func() { c.NewDecision("spark", "n1") },
		"OperatorMigrated":   func() { c.OperatorMigrated("op", "n1", "n2", "slo", 1.5) },
		"PreemptKill":        func() { c.PreemptKill("a", "n1", "drained", 2) },
		"PreemptNotice":      func() { c.PreemptNotice("a", "n1", 30) },
		"RecoverySpan":       func() { c.RecoverySpan(1, 2) },
		"RegisterNode":       func() { c.RegisterNode("n1", 4) },
		"SpeculatableMarked": func() { c.SpeculatableMarked(7) },
		"StageBegin":         func() { c.StageBegin(st) },
		"StageEnd":           func() { c.StageEnd(1) },
		"StreamSpan":         func() { c.StreamSpan("n1", "op", "run", "detail", 5) },
		"StreamSpanAt":       func() { c.StreamSpanAt("n1", "op", "drain", "detail", 1, 2) },
		"TaskQueued":         func() { c.TaskQueued(7) },
		"TracedTasks":        func() { c.TracedTasks() },
		"WriteChromeTrace":   func() { _ = c.WriteChromeTrace(io.Discard) },
	}
	typ := reflect.TypeOf(c)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; calls[name] == nil {
			t.Errorf("exported method %s has no entry in the table", name)
		}
	}
	for name, call := range calls {
		if n := testing.AllocsPerRun(10, call); n != 0 {
			t.Errorf("%s on a nil collector: %v allocations per call, want 0", name, n)
		}
	}
}

// fixture builds a collector over a tiny scripted run: two nodes, one job
// with one stage of two tasks, one fault window, one decision per launch.
func fixture(t *testing.T) *Collector {
	t.Helper()
	eng := simx.NewEngine()
	c := NewCollector()
	c.Bind(eng)
	c.RegisterNode("n1", 2)
	c.RegisterNode("n2", 1)

	st := &task.Stage{ID: 1, Name: "map", JobID: 0, Tasks: make([]*task.Task, 2)}
	t1 := &task.Task{ID: 10, StageID: 1, Index: 0}
	t2 := &task.Task{ID: 11, StageID: 1, Index: 1}

	var a1, a2 *AttemptTrace
	eng.At(0, func() {
		c.JobBegin(0, "fixture")
		c.StageBegin(st)
		c.TaskQueued(10)
		c.TaskQueued(11)
	})
	eng.At(1, func() {
		d := c.NewDecision("rupam", "n1")
		d.SetQueue("cpu", 3.2, 0.5)
		d.Candidate(11, "ANY", "", "")
		d.SetWinner(10, "process-local", "PROCESS_LOCAL", false)
		d.Commit()
		a1 = c.AttemptStarted(t1, st, "n1", "PROCESS_LOCAL", false)
	})
	eng.At(1.5, func() {
		a1.Phase("compute")
		d := c.NewDecision("rupam", "n2")
		d.SetWinner(11, "best-locality", "ANY", false)
		d.Commit()
		a2 = c.AttemptStarted(t2, st, "n2", "ANY", false)
	})
	eng.At(2, func() { c.FaultSpan("n2", "nic-degrade", "×0.50 for 3s", 3) })
	eng.At(4, func() {
		a1.Finish("success")
		a2.Phase("shuffle-write")
	})
	eng.At(6, func() {
		a2.Finish("success")
		c.StageEnd(1)
		c.JobEnd(0)
	})
	eng.Run()
	return c
}

func TestCollectorCounts(t *testing.T) {
	c := fixture(t)
	if got := c.DecisionCount(); got != 2 {
		t.Fatalf("decisions = %d, want 2", got)
	}
	if got := c.TracedTasks(); got != 2 {
		t.Fatalf("traced tasks = %d, want 2", got)
	}
	if c.EventCount() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestChromeExportValidates(t *testing.T) {
	c := fixture(t)
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"traceEvents"`, "task 10", "task 11", "stage 1 (map)",
		"job 0 (fixture)", "nic-degrade", "process-local",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q", want)
		}
	}
}

// TestChromeExportDeterministic builds the same scripted run twice and
// requires byte-identical exports — the golden-file property the bigger
// end-to-end test in critpath_test.go checks over full simulations.
func TestChromeExportDeterministic(t *testing.T) {
	var b1, b2 bytes.Buffer
	if err := fixture(t).WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := fixture(t).WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("exports differ: %d vs %d bytes", b1.Len(), b2.Len())
	}
}

func TestOpenSpansCloseAtTraceEnd(t *testing.T) {
	eng := simx.NewEngine()
	c := NewCollector()
	c.Bind(eng)
	c.RegisterNode("n1", 1)
	eng.At(1, func() { c.FaultSpan("n1", "crash", "permanent", 0) })
	eng.At(5, func() { c.ExecutorLost("n1", "heartbeat timeout") })
	eng.Run()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("open span exported invalid: %v", err)
	}
	// The crash span must span [1s, 5s] — closed at the last event, never
	// negative or absent.
	if !strings.Contains(buf.String(), `"dur":4000000`) {
		t.Fatalf("open crash span not closed at trace end:\n%s", buf.String())
	}
}

// TestAbortedRunMarksOpenSpans scripts an aborted run: its job and the
// stage running at the abort never close. The export must end both at the
// horizon and mark them open, and must not mark the stage that finished.
func TestAbortedRunMarksOpenSpans(t *testing.T) {
	eng := simx.NewEngine()
	c := NewCollector()
	c.Bind(eng)
	c.RegisterNode("n1", 1)
	eng.At(0, func() {
		c.JobBegin(0, "aborted")
		c.StageBegin(&task.Stage{ID: 1, Name: "map"})
	})
	eng.At(2, func() {
		c.StageEnd(1)
		c.StageBegin(&task.Stage{ID: 2, Name: "reduce"})
	})
	eng.At(3, func() { c.JobAborted("task failed 4 times") })
	eng.At(5, func() { c.ExecutorLost("n1", "heartbeat timeout") })
	eng.Run()

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Args    map[string]interface{}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		end  float64
		open bool
	}{
		"job 0 (aborted)":  {5, true},
		"stage 1 (map)":    {2, false},
		"stage 2 (reduce)": {5, true},
	}
	seen := 0
	for _, e := range tr.TraceEvents {
		w, ok := want[e.Name]
		if !ok || e.Ph != "X" {
			continue
		}
		seen++
		if end := (e.Ts + e.Dur) / 1e6; end != w.end {
			t.Errorf("%s ends at %vs, want %vs", e.Name, end, w.end)
		}
		if open, _ := e.Args["open"].(bool); open != w.open {
			t.Errorf("%s: open = %v, want %v (args %v)", e.Name, open, w.open, e.Args)
		}
		if strings.HasPrefix(e.Name, "stage") && e.Args["kind"] == nil {
			t.Errorf("%s lost its stage args: %v", e.Name, e.Args)
		}
	}
	if seen != len(want) {
		t.Fatalf("found %d of the %d job and stage spans:\n%s", seen, len(want), buf.String())
	}
}

func TestSpeculatableMarkDedups(t *testing.T) {
	eng := simx.NewEngine()
	c := NewCollector()
	c.Bind(eng)
	c.SpeculatableMarked(3)
	c.SpeculatableMarked(3)
	c.SpeculatableMarked(4)
	if got := len(c.instants); got != 2 {
		t.Fatalf("speculation instants = %d, want 2", got)
	}
}

func TestSetWinnerRelabelsLosers(t *testing.T) {
	c := NewCollector()
	c.Bind(simx.NewEngine())
	d := c.NewDecision("rupam", "n1")
	d.Candidate(1, "ANY", "", "")
	d.Candidate(2, "ANY", "no-mem-fit", "needs 2GB")
	d.Candidate(3, "NODE_LOCAL", "", "")
	d.SetWinner(3, "best-locality", "NODE_LOCAL", false)
	d.Commit()

	got := map[int]string{}
	for _, cand := range c.Decisions()[0].Candidates {
		got[cand.TaskID] = cand.Rejection
	}
	if got[1] != "lost-to-winner" {
		t.Errorf("task 1 rejection = %q, want lost-to-winner", got[1])
	}
	if got[2] != "no-mem-fit" {
		t.Errorf("task 2 rejection = %q, want no-mem-fit (explicit reasons keep)", got[2])
	}
	if got[3] != "" {
		t.Errorf("winner rejection = %q, want empty", got[3])
	}
}

func TestExplain(t *testing.T) {
	c := fixture(t)
	var buf bytes.Buffer
	if err := c.Explain(&buf, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"task 10", "PROCESS_LOCAL", "process-local", "success", "compute",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q in:\n%s", want, out)
		}
	}
	if err := c.Explain(&buf, 999); err == nil {
		t.Fatal("explain of unknown task should error")
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not json"),
		[]byte(`{"traceEvents":[]}`),
		[]byte(`{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"dur":1}]}`),     // no name
		[]byte(`{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":1,"ts":-4}]}`), // negative ts
		[]byte(`{"traceEvents":[{"name":"a","ph":"i","pid":1,"tid":1,"ts":0}]}`),  // instant without scope
		[]byte(`{"traceEvents":[{"name":"a","ph":"Q","pid":1,"tid":1,"ts":0}]}`),  // unknown phase
	}
	for i, data := range bad {
		if err := ValidateChromeTrace(data); err == nil {
			t.Errorf("case %d: invalid trace accepted", i)
		}
	}
}
