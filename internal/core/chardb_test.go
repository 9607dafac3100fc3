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

func TestDBUpdateAndFlush(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"grad", 1}
	m := &task.Metrics{
		Executor: "thor1", Launch: 0, End: 10,
		ComputeTime: 8, ShuffleReadTime: 1, ShuffleWriteTime: 0.5,
		PeakMemory: 1 << 28,
	}
	db.Update(key, m, CPU, true)

	// Visible through the write queue before flushing (§III-B2's helper
	// thread read path).
	rec := db.Lookup(key)
	if rec == nil {
		t.Fatal("queued write invisible to reads")
	}
	if db.QueueHits == 0 {
		t.Fatal("queue read not counted")
	}
	if rec.ComputeTime != 8 || rec.Runs != 1 || rec.OptExecutor != "thor1" || rec.BestTime != 10 {
		t.Fatalf("record = %+v", rec)
	}
	if !rec.HistoryResource[CPU] {
		t.Fatal("bottleneck not recorded")
	}

	if n := db.Flush(); n != 1 {
		t.Fatalf("flush applied %d writes", n)
	}
	if db.PendingWrites() != 0 || db.Size() != 1 {
		t.Fatal("flush bookkeeping wrong")
	}
	if db.Lookup(key) == nil {
		t.Fatal("flushed record missing")
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
	r.HistoryResource = map[Resource]bool{CPU: true, Mem: true, Disk: true, Net: true, GPU: true}
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
	db.Flush()
	db.Clear()
	if db.Size() != 0 || db.Lookup(TaskKey{"t", 0}) != nil {
		t.Fatal("clear incomplete")
	}
}

func TestDBLookupReturnsCopy(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "a", End: 3, ComputeTime: 2}, CPU, true)
	db.Flush()
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
	db.Flush()
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

// TestDBFlushOverwritesInPlace checks that a second flush of a known task
// updates the stored record without disturbing copies handed out earlier.
func TestDBFlushOverwritesInPlace(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	db.Update(key, &task.Metrics{Executor: "a", End: 3, ComputeTime: 2}, CPU, true)
	db.Flush()
	before := db.Lookup(key)
	db.Update(key, &task.Metrics{Executor: "b", End: 1, ComputeTime: 4}, CPU, true)
	db.Flush()
	after := db.Lookup(key)
	if before.ComputeTime != 2 || before.Runs != 1 {
		t.Fatalf("earlier copy changed: compute %v runs %d", before.ComputeTime, before.Runs)
	}
	if after.ComputeTime != 3 || after.Runs != 2 || after.OptExecutor != "b" || db.Size() != 1 {
		t.Fatalf("after second flush: compute %v runs %d opt %q size %d",
			after.ComputeTime, after.Runs, after.OptExecutor, db.Size())
	}
}

// TestDBUpdateBuildsInQueue checks that an observation of a known task
// is merged in its queue slot: once the queue has grown, Update and Flush
// allocate nothing, and queued merges still chain on each other.
func TestDBUpdateBuildsInQueue(t *testing.T) {
	db := NewCharDB()
	key := TaskKey{"t", 0}
	m := &task.Metrics{Executor: "a", End: 1, ComputeTime: 2}
	db.Update(key, m, CPU, true)
	db.Update(key, m, CPU, true)
	if rec := db.Lookup(key); rec.Runs != 2 || db.PendingWrites() != 2 {
		t.Fatalf("queued merge: runs %d, pending %d", rec.Runs, db.PendingWrites())
	}
	db.Flush()
	allocs := testing.AllocsPerRun(100, func() {
		db.Update(key, m, CPU, true)
		db.Flush()
	})
	if allocs != 0 {
		t.Fatalf("Update+Flush of a known task: %v allocations, want 0", allocs)
	}
}
