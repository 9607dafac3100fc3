package core

import (
	"math"
	"testing"

	"rupam/internal/task"
)

func TestResourceStrings(t *testing.T) {
	want := map[Resource]string{CPU: "cpu", Mem: "mem", Disk: "disk", Net: "net", GPU: "gpu"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%v.String() = %q", r, r.String())
		}
	}
	if Resource(99).String() != "unknown" {
		t.Error("unknown resource string")
	}
	if len(Resources) != NumResources {
		t.Error("Resources list incomplete")
	}
}

func TestKeyFor(t *testing.T) {
	st := &task.Stage{Signature: "grad"}
	tk := &task.Task{Index: 3}
	if got := KeyFor(st, tk); got != (TaskKey{"grad", 3}) {
		t.Fatalf("KeyFor = %+v", got)
	}
}

func TestDBLookupEmpty(t *testing.T) {
	db := NewCharDB()
	if db.Lookup(TaskKey{"x", 0}) != nil {
		t.Fatal("lookup on empty DB returned a record")
	}
	if db.Size() != 0 {
		t.Fatal("empty DB has entries")
	}
}

// TestDBUpdateVisibleToNextRead checks that an observation is visible to
// the read that follows it, through Lookup and through the scheduler's
// in-place read, including a stage whose records recordOf has memoized.
func TestDBUpdateVisibleToNextRead(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"grad", 1}
	m := &task.Metrics{
		Executor: "thor1", Launch: 0, End: 10,
		ComputeTime: 8, ShuffleReadTime: 1, ShuffleWriteTime: 0.5,
		PeakMemory: 1 << 28,
	}
	db.Update(key, m, CPU, true)

	rec := db.Lookup(key)
	if rec == nil {
		t.Fatal("update invisible to the next read")
	}
	if rec.ComputeTime != 8 || rec.Runs != 1 || rec.OptExecutor != "thor1" || rec.BestTime != 10 {
		t.Fatalf("record = %+v", rec)
	}
	if rec.BottleneckCounts[CPU] != 1 {
		t.Fatal("bottleneck not recorded")
	}
	if db.Size() != 1 {
		t.Fatalf("size %d after one task's update, want 1", db.Size())
	}

	st := &task.Stage{Signature: "grad"}
	if r := db.recordOf(st, &task.Task{Index: 1}); r == nil || r.Runs != 1 {
		t.Fatalf("in-place read = %+v", r)
	}
	db.Update(key, m, Mem, true)
	if r := db.recordOf(st, &task.Task{Index: 1}); r == nil || r.Runs != 2 || r.BottleneckCounts[Mem] != 1 {
		t.Fatalf("memoized read missed an update of a known task: %+v", r)
	}
	db.Update(TaskKey{"grad", 0}, m, CPU, true)
	if r := db.recordOf(st, &task.Task{Index: 0}); r == nil || r.Runs != 1 {
		t.Fatalf("memoized read missed a new task: %+v", r)
	}
}

func TestDBBestTimeTracksMinimum(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "slow", Launch: 0, End: 20}, CPU, true)
	db.Update(key, &task.Metrics{Executor: "fast", Launch: 0, End: 5}, CPU, true)
	db.Update(key, &task.Metrics{Executor: "mid", Launch: 0, End: 12}, CPU, true)
	rec := db.Lookup(key)
	if rec.OptExecutor != "fast" || rec.BestTime != 5 {
		t.Fatalf("opt = %s best = %v", rec.OptExecutor, rec.BestTime)
	}
	if rec.Runs != 3 {
		t.Fatalf("runs = %d", rec.Runs)
	}
}

func TestDBOOMRecording(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "thor1", OOM: true}, CPU, false)
	rec := db.Lookup(key)
	if !rec.OOMNodes["thor1"] {
		t.Fatal("OOM node not recorded")
	}
	if rec.Runs != 0 {
		t.Fatal("OOM counted as a successful run")
	}
}

func TestDBKilledAttemptIgnored(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "a", Killed: true, End: 5}, CPU, false)
	rec := db.Lookup(key)
	if rec.Runs != 0 || rec.OptExecutor != "" {
		t.Fatalf("killed attempt polluted record: %+v", rec)
	}
}

func TestRecordLocked(t *testing.T) {
	r := &Record{}
	if r.Locked(3) {
		t.Fatal("empty record locked")
	}
	r.OptExecutor = "n"
	r.Runs = 2
	if r.Locked(3) {
		t.Fatal("locked before enough runs")
	}
	r.Runs = 3
	if !r.Locked(3) {
		t.Fatal("not locked after enough runs")
	}
	r.Runs = 1
	r.BottleneckCounts = [NumResources]int{1, 1, 1, 1, 0}
	if r.Locked(3) {
		t.Fatal("locked with a resource missing from the history")
	}
	r.BottleneckCounts[GPU] = 2
	if !r.Locked(3) {
		t.Fatal("all-five-resources condition did not lock")
	}
	if r.Locked(0) != true {
		t.Fatal("strict condition independent of lockAfterRuns")
	}
}

func TestDBClear(t *testing.T) {
	db := NewCharDB()
	db.Update(TaskKey{"t", 0}, &task.Metrics{Executor: "a", End: 1}, CPU, true)
	db.Clear()
	if db.Size() != 0 || db.Lookup(TaskKey{"t", 0}) != nil {
		t.Fatal("clear incomplete")
	}
}

func TestDBLookupReturnsCopy(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "a", End: 3, ComputeTime: 2}, CPU, true)
	rec := db.Lookup(key)
	rec.ComputeTime = 999
	if db.Lookup(key).ComputeTime == 999 {
		t.Fatal("Lookup leaks internal state")
	}
}

// TestDBMeanComputeTimeDeterministic pins the summation order: over a
// store of 200 records with compute times of mixed magnitude, a sum in
// map order differs in its last bits from one call to the next.
func TestDBMeanComputeTimeDeterministic(t *testing.T) {
	db := NewCharDB()
	for i := 0; i < 200; i++ {
		ct := float64(i%7)*1e4 + 1/float64(i+3) + float64(i%13)*1e-3
		db.Update(TaskKey{"stage", i}, &task.Metrics{Executor: "a", End: 1, ComputeTime: ct}, CPU, true)
	}
	first, ok := db.MeanComputeTime()
	if !ok {
		t.Fatal("no mean over a populated store")
	}
	for call := 1; call < 50; call++ {
		if got, _ := db.MeanComputeTime(); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: mean %v (bits %x), first call %v (bits %x)",
				call, got, math.Float64bits(got), first, math.Float64bits(first))
		}
	}
}

// TestDBUpdateOverwritesInPlace checks that a second update of a known
// task changes its record in place without disturbing copies handed out
// earlier.
func TestDBUpdateOverwritesInPlace(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "a", End: 3, ComputeTime: 2}, CPU, true)
	before := db.Lookup(key)
	stored := db.stored(key)
	db.Update(key, &task.Metrics{Executor: "b", End: 1, ComputeTime: 4}, CPU, true)
	after := db.Lookup(key)
	if before.ComputeTime != 2 || before.Runs != 1 {
		t.Fatalf("earlier copy changed: compute %v runs %d", before.ComputeTime, before.Runs)
	}
	if after.ComputeTime != 3 || after.Runs != 2 || after.OptExecutor != "b" || db.Size() != 1 {
		t.Fatalf("after second update: compute %v runs %d opt %q size %d",
			after.ComputeTime, after.Runs, after.OptExecutor, db.Size())
	}
	if db.stored(key) != stored {
		t.Fatal("second update replaced the record instead of merging in place")
	}
}

// TestDBUpdateKnownTaskAllocatesNothing checks that an observation of a
// known task, an out-of-memory one on a node already recorded included,
// merges into its record without allocating, and that merges chain.
func TestDBUpdateKnownTaskAllocatesNothing(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	m := &task.Metrics{Executor: "a", End: 1, ComputeTime: 2}
	oom := &task.Metrics{Executor: "a", OOM: true}
	db.Update(key, m, CPU, true)
	db.Update(key, m, CPU, true)
	db.Update(key, oom, CPU, false)
	if rec := db.Lookup(key); rec.Runs != 2 || rec.BottleneckCounts[CPU] != 2 || !rec.OOMNodes["a"] {
		t.Fatalf("merge: %+v", rec)
	}
	allocs := testing.AllocsPerRun(100, func() {
		db.Update(key, m, CPU, true)
		db.Update(key, oom, CPU, false)
	})
	if allocs != 0 {
		t.Fatalf("Update of a known task: %v allocations, want 0", allocs)
	}
}
