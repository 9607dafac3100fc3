package spark

import (
	"fmt"
	"rupam/internal/faults"
	"testing"

	"rupam/internal/task"
	"rupam/internal/wal"
)

// recordingBroker refuses each task's first placement request and admits
// the rest, recording what it admitted so PlacementStarted can check that
// every launch was admitted first.
type recordingBroker struct {
	t        *testing.T
	rt       **Runtime
	asked    map[int]bool
	admitted string // the admission the next launch must consume
	refused  int
	launched map[string]int
}

func (b *recordingBroker) AdmitPlacement(t *task.Task, node string) bool {
	if !b.asked[t.ID] {
		b.asked[t.ID] = true
		b.refused++
		return false
	}
	b.admitted = fmt.Sprintf("%d@%s", t.ID, node)
	return true
}

func (b *recordingBroker) PlacementStarted(t *task.Task, node string) {
	key := fmt.Sprintf("%d@%s", t.ID, node)
	if b.admitted != key {
		b.t.Errorf("launch of %s was not admitted first (last admission %q)", key, b.admitted)
	}
	b.admitted = ""
	live := false
	for _, r := range (*b.rt).RunningAttempts(t) {
		live = live || r.Metrics().Executor == node
	}
	if !live {
		b.t.Errorf("broker told of %s before the attempt was live", key)
	}
	b.launched[key]++
}

// TestHooksSteerSharedRuntime runs one application on a shared substrate
// with every hook set, crashes its driver mid-run, and checks the
// contract each hook promises its host.
func TestHooksSteerSharedRuntime(t *testing.T) {
	const slotCap = 3
	w := newWorld(t)
	var rt *Runtime
	sub := buildTestSubstrate(w, &rt)
	broker := &recordingBroker{t: t, rt: &rt, asked: map[int]bool{}, launched: map[string]int{}}
	var (
		askedGPU, capRefused bool
		reschedules, done    int
		ended                = map[string]int{}
		recovered            []*wal.State
		launchesAtCrash      = -1
	)
	rt = NewRuntimeOn(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, WAL: wal.New(nil, wal.Options{}),
	}, sub, Hooks{
		CanLaunch: func(node string) bool {
			askedGPU = askedGPU || node == "gpu"
			return node != "gpu"
		},
		UnderCap: func() bool {
			if rt.LiveAttempts() < slotCap {
				return true
			}
			capRefused = true
			return false
		},
		Reschedule: func() {
			reschedules++
			rt.Scheduler().Schedule()
		},
		Broker: broker,
		AttemptEnded: func(tk *task.Task, node string) {
			ended[fmt.Sprintf("%d@%s", tk.ID, node)]++
		},
		Recovered: func(s *wal.State) {
			if rt.Crashed() {
				t.Error("Recovered fired while the driver was still down")
			}
			recovered = append(recovered, s)
		},
		Done: func() {
			if !rt.Done() {
				t.Error("Done fired before the application finished")
			}
			done++
			sub.Mon.Stop()
		},
	})
	peak := 0
	for i := 1; i <= 200; i++ {
		w.eng.At(float64(i)*0.05, func() { peak = max(peak, rt.LiveAttempts()) })
	}
	w.eng.At(2, func() {
		launchesAtCrash = rt.Launches
		rt.CrashDriver(1)
	})
	// A CPU-throttled node makes stragglers, so speculative copies race
	// and the losers end through the kill path.
	faults.NewInjector(w.eng, w.clu, sub.Execs).Install(&faults.Schedule{Events: []faults.Event{
		{Kind: faults.CPUDegrade, Node: "slow", At: 0.5, Duration: 10, Factor: 0.1},
	}})
	sub.Mon.Start()
	rt.Start(simpleApp(w, 3))
	w.eng.RunUntil(3600)
	if !rt.Done() {
		t.Fatal("application did not finish")
	}
	res := rt.BuildResult()

	if !askedGPU {
		t.Error("CanLaunch was never asked about the refused node")
	}
	for _, tk := range res.App.AllTasks() {
		for _, m := range tk.Attempts {
			if m.Executor == "gpu" {
				t.Fatalf("task %d ran on a node CanLaunch refused", tk.ID)
			}
		}
	}
	if !capRefused || peak > slotCap {
		t.Errorf("UnderCap did not gate launches: refused %v, peak live attempts %d, cap %d", capRefused, peak, slotCap)
	}
	if broker.refused == 0 || res.SpecCopies == 0 {
		t.Errorf("the broker refused %d placements and %d speculative copies ran; want both > 0", broker.refused, res.SpecCopies)
	}
	total := 0
	for key, n := range broker.launched {
		total += n
		if ended[key] != n {
			t.Errorf("%s: %d launches, AttemptEnded fired %d times", key, n, ended[key])
		}
	}
	if len(ended) != len(broker.launched) {
		t.Errorf("AttemptEnded fired for %d attempt keys, the broker saw %d launched", len(ended), len(broker.launched))
	}
	if total != res.Launches {
		t.Errorf("broker told of %d launches, runtime counted %d", total, res.Launches)
	}
	if reschedules == 0 {
		t.Error("Reschedule never fired")
	}
	if done != 1 {
		t.Errorf("Done fired %d times, want 1", done)
	}
	if len(recovered) != 1 || res.DriverRecoveries != 1 {
		t.Fatalf("Recovered fired %d times over %d recoveries, want 1", len(recovered), res.DriverRecoveries)
	}
	if got := recovered[0].Counters.Launches; got != launchesAtCrash || got == 0 {
		t.Errorf("recovered fold counts %d launches, the runtime had %d at the crash", got, launchesAtCrash)
	}
}
