package task

import (
	"strings"
	"testing"

	"rupam/internal/hdfs"
)

func TestKindString(t *testing.T) {
	if ShuffleMap.String() != "ShuffleMapTask" || Result.String() != "ResultTask" {
		t.Fatal("kind strings wrong")
	}
}

func TestDemandHelpers(t *testing.T) {
	d := Demand{CPUWork: 3, GPUWork: 2}
	if d.TotalComputeWork() != 5 {
		t.Fatalf("total compute = %v", d.TotalComputeWork())
	}
	if !d.GPUCapable() {
		t.Fatal("GPUWork > 0 should be GPU capable")
	}
	if (Demand{CPUWork: 1}).GPUCapable() {
		t.Fatal("CPU-only demand reported GPU capable")
	}
}

func TestMetricsHelpers(t *testing.T) {
	m := Metrics{Launch: 2, End: 7}
	if m.Duration() != 5 {
		t.Fatalf("duration = %v", m.Duration())
	}
}

func TestLocalityOn(t *testing.T) {
	tk := Task{PrefNodes: []string{"a", "b"}, CachedOn: "c"}
	if tk.LocalityOn("c") != hdfs.ProcessLocal {
		t.Error("cached node not PROCESS_LOCAL")
	}
	if tk.LocalityOn("a") != hdfs.NodeLocal || tk.LocalityOn("b") != hdfs.NodeLocal {
		t.Error("replica node not NODE_LOCAL")
	}
	if tk.LocalityOn("z") != hdfs.Any {
		t.Error("other node not ANY")
	}
}

func TestSuccessMetrics(t *testing.T) {
	tk := Task{}
	if tk.SuccessMetrics() != nil {
		t.Fatal("no attempts should yield nil")
	}
	oom := &Metrics{OOM: true, End: 1}
	killed := &Metrics{Killed: true, End: 2}
	good := &Metrics{End: 3}
	tk.Attempts = []*Metrics{oom, killed, good}
	if tk.SuccessMetrics() != good {
		t.Fatal("did not find the successful attempt")
	}
}

func TestTaskString(t *testing.T) {
	tk := Task{ID: 7, StageID: 3, Index: 2, Kind: Result}
	s := tk.String()
	for _, want := range []string{"7", "3", "2", "ResultTask"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestStageCompletion(t *testing.T) {
	st := Stage{Tasks: make([]*Task, 3)}
	if st.IsComplete() {
		t.Fatal("fresh stage complete")
	}
	if st.MarkCompleted() {
		t.Fatal("1/3 reported complete")
	}
	if st.MarkCompleted() {
		t.Fatal("2/3 reported complete")
	}
	if !st.MarkCompleted() {
		t.Fatal("3/3 not reported complete")
	}
	if !st.IsComplete() || st.Completed() != 3 {
		t.Fatal("completion state inconsistent")
	}
}

func TestShuffleOutputAccounting(t *testing.T) {
	st := Stage{}
	st.AddShuffleOutput("a", 100)
	st.AddShuffleOutput("b", 50)
	st.AddShuffleOutput("a", 25)
	if st.ShuffleOutputByNode["a"] != 125 || st.ShuffleOutputByNode["b"] != 50 {
		t.Fatalf("by-node = %v", st.ShuffleOutputByNode)
	}
}

func TestLoseNodeOutputsSkipsUncountedEntries(t *testing.T) {
	// Four tasks: 0, 1 and 3 finished (counted), 2 still running but with
	// its shuffle output already materialized on node "a" — the attempt is
	// between its write phase and its success report. Losing "a" must roll
	// the counter back only for the finished tasks; decrementing for the
	// uncounted entry would leave the stage one completion short forever.
	st := Stage{Tasks: []*Task{
		{Index: 0, State: Finished},
		{Index: 1, State: Finished},
		{Index: 2, State: Running},
		{Index: 3, State: Finished},
	}}
	st.RecordShuffleOutput(0, "a", 10)
	st.MarkCompleted()
	st.RecordShuffleOutput(1, "a", 10)
	st.MarkCompleted()
	st.RecordShuffleOutput(3, "b", 10)
	st.MarkCompleted()
	st.RecordShuffleOutput(2, "a", 10) // written, not yet succeeded

	lost := st.LoseNodeOutputs("a")
	if len(lost) != 3 {
		t.Fatalf("lost = %v, want indices 0 1 2", lost)
	}
	if st.Completed() != 1 {
		t.Fatalf("completed = %d after rollback, want 1 (only task 3 still counted)", st.Completed())
	}
	// Reruns of 0 and 1 finish, then 2's original success lands: the stage
	// must report complete on the last one.
	st.Tasks[0].State, st.Tasks[1].State = Finished, Finished
	st.RecordShuffleOutput(0, "b", 10)
	if st.MarkCompleted() {
		t.Fatal("complete at 2/4")
	}
	st.RecordShuffleOutput(1, "b", 10)
	if st.MarkCompleted() {
		t.Fatal("complete at 3/4")
	}
	st.Tasks[2].State = Finished
	st.RecordShuffleOutput(2, "c", 10)
	if !st.MarkCompleted() {
		t.Fatal("stage not complete after every task finished — counter in deficit")
	}
}

func TestApplicationHelpers(t *testing.T) {
	mk := func(ids ...int) *Stage {
		st := &Stage{}
		for _, id := range ids {
			st.Tasks = append(st.Tasks, &Task{ID: id})
		}
		return st
	}
	app := Application{
		Jobs: []*Job{
			{Stages: []*Stage{mk(1, 2), mk(3)}},
			{Stages: []*Stage{mk(4)}},
		},
	}
	if app.NumTasks() != 4 {
		t.Fatalf("NumTasks = %d", app.NumTasks())
	}
	all := app.AllTasks()
	if len(all) != 4 || all[0].ID != 1 || all[3].ID != 4 {
		t.Fatalf("AllTasks = %v", all)
	}
}
