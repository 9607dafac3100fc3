package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rupam/internal/core"
)

// TestRunWithCharDB drives the persisted task-characteristics database
// through its three start states: cold on a missing file, warm from the
// file the cold run saved, and cold again on a corrupt file, which the
// run replaces with a readable one.
func TestRunWithCharDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chardb.json")
	spec := RunSpec{Workload: "LR", Seed: 1}

	cold, n := RunWithCharDB(spec, path)
	if cold.Aborted != nil {
		t.Fatalf("cold run aborted: %v", cold.Aborted)
	}
	if n <= 0 {
		t.Fatalf("cold run persisted %d records", n)
	}
	saved := core.NewCharDB()
	if err := saved.LoadFile(path); err != nil {
		t.Fatalf("cold run's DB unreadable: %v", err)
	}
	if saved.Size() != n {
		t.Fatalf("DB file holds %d records, run reported %d", saved.Size(), n)
	}

	warm, _ := RunWithCharDB(spec, path)
	if warm.Aborted != nil {
		t.Fatalf("warm run aborted: %v", warm.Aborted)
	}
	if warm.Duration > 1.05*cold.Duration {
		t.Errorf("warm run took %.2fs, cold %.2fs: warm start slower than 1.05x cold",
			warm.Duration, cold.Duration)
	}

	if err := os.WriteFile(path, []byte("{not a chardb"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, m := RunWithCharDB(spec, path)
	if again.Aborted != nil {
		t.Fatalf("run over a corrupt DB aborted: %v", again.Aborted)
	}
	if again.Duration != cold.Duration || m != n {
		t.Errorf("run over a corrupt DB: %.2fs, %d records; cold run %.2fs, %d records",
			again.Duration, m, cold.Duration, n)
	}
	replaced := core.NewCharDB()
	if err := replaced.LoadFile(path); err != nil {
		t.Fatalf("corrupt DB was not replaced: %v", err)
	}
}
