package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rupam/internal/rdd"
	"rupam/internal/spark"
	"rupam/internal/task"
)

func populatedDB(t *testing.T) *CharDB {
	t.Helper()
	db := NewCharDB()
	db.Update(TaskKey{"grad", 0}, &task.Metrics{
		Executor: "thor1", Launch: 0, End: 10, ComputeTime: 8,
		ShuffleReadTime: 1, PeakMemory: 1 << 28,
	}, CPU, true)
	db.Update(TaskKey{"grad", 0}, &task.Metrics{
		Executor: "thor2", Launch: 0, End: 8, ComputeTime: 7,
	}, CPU, true)
	db.Update(TaskKey{"join", 3}, &task.Metrics{
		Executor: "hulk1", OOM: true,
	}, CPU, false)
	db.Update(TaskKey{"blas", 1}, &task.Metrics{
		Executor: "stack1", Launch: 0, End: 4, UsedGPU: true,
	}, GPU, true)
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := populatedDB(t)
	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}

	restored := NewCharDB()
	if err := restored.Load(strings.NewReader(buf.String())); err != nil {
		t.Fatal(err)
	}
	if restored.Size() != db.Size() {
		t.Fatalf("records: %d vs %d", restored.Size(), db.Size())
	}
	rec := restored.Lookup(TaskKey{"grad", 0})
	if rec == nil {
		t.Fatal("grad record lost")
	}
	if rec.Runs != 2 || rec.OptExecutor != "thor2" || rec.BestTime != 8 {
		t.Fatalf("grad record corrupted: %+v", rec)
	}
	if h := toPersisted(rec.Key, rec).History; rec.BottleneckCounts[CPU] != 2 || !slices.Equal(h, []string{"cpu"}) {
		t.Fatalf("history lost: %+v, history %v", rec, h)
	}
	oom := restored.Lookup(TaskKey{"join", 3})
	if oom == nil || !oom.OOMNodes["hulk1"] {
		t.Fatal("OOM node lost")
	}
	gpu := restored.Lookup(TaskKey{"blas", 1})
	if gpu == nil || !gpu.GPU {
		t.Fatal("GPU flag lost")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	db := populatedDB(t)
	var a, b strings.Builder
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Save output differs between calls")
	}
}

func TestLoadRejectsGarbageWithoutClobbering(t *testing.T) {
	// A corrupt characterization file errors out, and the database keeps
	// whatever good state it already had — Load decodes fully before it
	// swaps anything in.
	db := populatedDB(t)
	before := db.Size()
	if err := db.Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage load should return an error")
	}
	if db.Size() != before {
		t.Fatalf("failed load changed the database: %d records, want %d", db.Size(), before)
	}
	if rec := db.Lookup(TaskKey{"grad", 0}); rec == nil || rec.Runs != 2 {
		t.Fatalf("failed load corrupted surviving record: %+v", rec)
	}
}

func TestLoadRejectsTruncatedFileWithoutClobbering(t *testing.T) {
	// A truncated JSON document (a crash mid-write through a non-atomic
	// path) is rejected with the previous contents intact, and the intact
	// file still round-trips afterwards.
	src := populatedDB(t)
	var buf strings.Builder
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	truncated := full[:len(full)/2]

	db := populatedDB(t)
	before := db.Size()
	if err := db.Load(strings.NewReader(truncated)); err == nil {
		t.Fatal("truncated load should return an error")
	}
	if db.Size() != before {
		t.Fatalf("truncated load changed the database: %d records, want %d", db.Size(), before)
	}

	if err := db.Load(strings.NewReader(full)); err != nil {
		t.Fatal(err)
	}
	if db.Size() != src.Size() {
		t.Fatalf("recovered load has %d records, want %d", db.Size(), src.Size())
	}
}

func TestSaveFileIsAtomic(t *testing.T) {
	// SaveFile goes through a temp file + rename: a good snapshot on disk
	// survives a later save writing garbage through a non-atomic path, and
	// a truncated half-written file is rejected by LoadFile without
	// corrupting the loader's previous good state.
	dir := t.TempDir()
	path := filepath.Join(dir, "chardb.json")

	src := populatedDB(t)
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("temp file left behind: %v entries (%v)", len(entries), err)
	}

	fresh := NewCharDB()
	if err := fresh.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if fresh.Size() != src.Size() {
		t.Fatalf("file round-trip lost records: %d vs %d", fresh.Size(), src.Size())
	}

	// Simulate a crash mid-write of a NEW snapshot via a non-atomic path:
	// the destination ends up truncated.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	loaded := populatedDB(t)
	before := loaded.Size()
	if err := loaded.LoadFile(path); err == nil {
		t.Fatal("truncated file should be rejected")
	}
	if loaded.Size() != before {
		t.Fatalf("rejected load changed the database: %d records, want %d", loaded.Size(), before)
	}

	// Saving again over the truncated wreck restores a loadable snapshot.
	if err := src.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	again := NewCharDB()
	if err := again.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if again.Size() != src.Size() {
		t.Fatalf("re-save lost records: %d vs %d", again.Size(), src.Size())
	}
}

func TestPutInstallPayloadRoundTrip(t *testing.T) {
	db := populatedDB(t)
	key := TaskKey{"grad", 0}
	b, ok := db.PutPayload(key)
	if !ok {
		t.Fatal("payload missing for observed task")
	}
	if _, ok := db.PutPayload(TaskKey{"nope", 9}); ok {
		t.Fatal("payload produced for never-observed task")
	}

	fresh := NewCharDB()
	if err := fresh.InstallPayload(b); err != nil {
		t.Fatal(err)
	}
	rec := fresh.Lookup(key)
	if rec == nil || rec.Runs != 2 || rec.OptExecutor != "thor2" || rec.BestTime != 8 {
		t.Fatalf("payload round-trip corrupted record: %+v", rec)
	}
	if err := fresh.InstallPayload([]byte("{broken")); err == nil {
		t.Fatal("broken payload should be rejected")
	}
}

// mismatchedHistories are records whose history names other resources
// than their positive bottleneck counts, which Save and PutPayload never
// write.
var mismatchedHistories = []string{
	`{"signature":"s","partition":1,"history":["cpu"],"bottleneck_counts":{"net":2}}`,
	`{"signature":"s","partition":1,"history":["cpu"]}`,
	`{"signature":"s","partition":1,"bottleneck_counts":{"cpu":1}}`,
	`{"signature":"s","partition":1,"history":["cpu","net"],"bottleneck_counts":{"cpu":1}}`,
	`{"signature":"s","partition":1,"history":["cpu","net"],"bottleneck_counts":{"cpu":1,"net":0}}`,
}

// TestLoadRejectsMismatchedHistory checks that Load rejects a record
// whose history differs from its positive counts and leaves the database
// unchanged, and that the agreeing form of the same record loads.
func TestLoadRejectsMismatchedHistory(t *testing.T) {
	for _, rec := range mismatchedHistories {
		db := populatedDB(t)
		before := saved(t, db)
		if err := db.Load(strings.NewReader("[" + rec + "]")); err == nil {
			t.Fatalf("Load accepted %s", rec)
		}
		if after := saved(t, db); !bytes.Equal(before, after) {
			t.Fatalf("rejected Load of %s changed the database:\n%s\nwant\n%s", rec, after, before)
		}
	}
	db := NewCharDB()
	agreeing := `[{"signature":"s","partition":1,"history":["net","cpu","cpu"],"bottleneck_counts":{"cpu":1,"net":2,"disk":0,"bogus":3}}]`
	if err := db.Load(strings.NewReader(agreeing)); err != nil {
		t.Fatalf("Load rejected a history that agrees with its counts: %v", err)
	}
	if rec := db.Lookup(TaskKey{"s", 1}); rec == nil || rec.BottleneckCounts != [NumResources]int{CPU: 1, Net: 2} {
		t.Fatalf("agreeing record loaded as %+v", rec)
	}
}

// TestInstallPayloadRejectsMismatchedHistory is the WAL-replay side of
// TestLoadRejectsMismatchedHistory.
func TestInstallPayloadRejectsMismatchedHistory(t *testing.T) {
	for _, rec := range mismatchedHistories {
		db := NewCharDB()
		if err := db.InstallPayload([]byte(rec)); err == nil {
			t.Fatalf("InstallPayload accepted %s", rec)
		}
		if db.Size() != 0 {
			t.Fatalf("rejected payload %s installed a record", rec)
		}
	}
}

func TestWarmStartSpeedsSecondRun(t *testing.T) {
	// Two identical apps back to back: the second, warm-started from the
	// first scheduler's saved DB, must not be slower — the paper's
	// periodic-job observation (§III-B2).
	runOnce := func(warmFrom []byte) (float64, *RUPAM) {
		w := newWorld(t)
		ctx := rdd.NewContext("app", w.store, 3)
		pts := ctx.Read(w.store.CreateEven("in", 400*1e6, 8)).
			Map("parse", rdd.Profile{CPUPerByte: 3e-9, MemPerByte: 1.2}).Cache()
		for i := 0; i < 3; i++ {
			pts.Map("grad", rdd.Profile{CPUPerByte: 200e-9, OutRatio: 1e-4}).
				Shuffle("sum", rdd.Profile{}, 2).Count("iter")
		}
		sched := New(Config{})
		if warmFrom != nil {
			if err := sched.DB().Load(bytes.NewReader(warmFrom)); err != nil {
				t.Fatal(err)
			}
		}
		rt := spark.NewRuntime(w.eng, w.clu, sched, spark.Config{Seed: 3})
		res := rt.Run(ctx.App())
		return res.Duration, sched
	}
	cold, sched := runOnce(nil)
	warm, _ := runOnce(saved(t, sched.DB()))
	if warm > cold*1.05 {
		t.Fatalf("warm start slower than cold: %v vs %v", warm, cold)
	}
	if sched.DB().Size() == 0 {
		t.Fatal("first run recorded nothing")
	}
}
