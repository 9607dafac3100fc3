package metrics

import (
	"math"
	"strings"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/task"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func appWithMetrics() *task.Application {
	mk := func(m task.Metrics) *task.Task {
		mm := m
		return &task.Task{State: task.Finished, Attempts: []*task.Metrics{&mm}}
	}
	st := &task.Stage{Tasks: []*task.Task{
		mk(task.Metrics{Locality: hdfs.ProcessLocal, ComputeTime: 2, GCTime: 1,
			ShuffleWriteTime: 0.5, SchedulerDelay: 0.1, End: 5}),
		mk(task.Metrics{Locality: hdfs.NodeLocal, ComputeTime: 3, InputDiskTime: 1,
			DeserializeTime: 0.2, End: 6}),
		mk(task.Metrics{Locality: hdfs.Any, ShuffleReadTime: 2, InputNetTime: 1, End: 7}),
	}}
	// One unfinished task must be excluded everywhere.
	st.Tasks = append(st.Tasks, &task.Task{})
	return &task.Application{Jobs: []*task.Job{{Stages: []*task.Stage{st}}}}
}

func TestAppBreakdown(t *testing.T) {
	b := AppBreakdown(appWithMetrics())
	if !almost(b.Compute, 5.2, 1e-9) {
		t.Errorf("compute = %v", b.Compute)
	}
	if !almost(b.GC, 1, 1e-9) {
		t.Errorf("gc = %v", b.GC)
	}
	if !almost(b.ShuffleDisk, 1.5, 1e-9) {
		t.Errorf("shuffle-disk = %v", b.ShuffleDisk)
	}
	if !almost(b.ShuffleNet, 3, 1e-9) {
		t.Errorf("shuffle-net = %v", b.ShuffleNet)
	}
	if !almost(b.Scheduler, 0.1, 1e-9) {
		t.Errorf("scheduler = %v", b.Scheduler)
	}
	if !almost(b.Total(), 5.2+1+1.5+3+0.1, 1e-9) {
		t.Errorf("total = %v", b.Total())
	}
}

// TestShuffleReadSplit pins the byte-share attribution of ShuffleReadTime:
// all-local reads bill shuffle-disk, all-remote bill shuffle-net, mixed
// reads split proportionally, and reads with no byte accounting fall back
// to shuffle-net (the pre-split behavior, kept for hand-built metrics).
func TestShuffleReadSplit(t *testing.T) {
	cases := []struct {
		name              string
		local, remote     int64
		wantDisk, wantNet float64
	}{
		{"all-local", 100, 0, 4, 0},
		{"all-remote", 0, 100, 0, 4},
		{"mixed-3:1", 75, 25, 3, 1},
		{"no-bytes-fallback", 0, 0, 0, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b Breakdown
			b.Add(&task.Metrics{
				ShuffleReadTime:    4,
				ShuffleBytesLocal:  tc.local,
				ShuffleBytesRemote: tc.remote,
			})
			if !almost(b.ShuffleDisk, tc.wantDisk, 1e-9) {
				t.Errorf("shuffle-disk = %v, want %v", b.ShuffleDisk, tc.wantDisk)
			}
			if !almost(b.ShuffleNet, tc.wantNet, 1e-9) {
				t.Errorf("shuffle-net = %v, want %v", b.ShuffleNet, tc.wantNet)
			}
		})
	}
}

func TestAppLocality(t *testing.T) {
	lc := AppLocality(appWithMetrics())
	if lc.Process != 1 || lc.Node != 1 || lc.Any != 1 || lc.Rack != 0 {
		t.Fatalf("locality = %+v", lc)
	}
	if lc.Total() != 3 {
		t.Fatalf("total = %d", lc.Total())
	}
}

func TestTaskRows(t *testing.T) {
	rows := TaskRows(appWithMetrics())
	if len(rows) != 3 {
		t.Fatalf("rows = %d (unfinished task included?)", len(rows))
	}
	if rows[0].Compute != 3 { // 2 compute + 1 gc
		t.Fatalf("row compute = %v", rows[0].Compute)
	}
}

type fakeHeap struct{ s *simx.Space }

func (f fakeHeap) Heap() *simx.Space { return f.s }

func TestRecorderSamples(t *testing.T) {
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	n := clu.AddNode(cluster.NodeSpec{
		Name: "a", Class: "t", Cores: 2, FreqGHz: 1,
		MemBytes: cluster.GB, NetBandwidth: cluster.GbE(1),
		DiskReadBW: cluster.MBps(100), DiskWriteBW: cluster.MBps(100),
	})
	heap := simx.NewSpace("heap", cluster.GB)
	heap.ForceAlloc(cluster.GB / 2)
	rec := NewRecorder(eng, clu, map[string]fakeHeap{"a": {heap}}, 1)
	n.CPU.Acquire(100, nil)
	rec.Start()
	eng.RunUntil(3.5)
	rec.Stop()
	eng.Run()
	tr := rec.Trace()
	if tr.Len() != 4 { // samples at 0,1,2,3
		t.Fatalf("samples = %d", tr.Len())
	}
	s := tr.Series["a"][1]
	if s.CPU <= 0 {
		t.Fatal("CPU sample empty")
	}
	if !almost(s.MemGB, 0.5, 1e-9) {
		t.Fatalf("mem sample = %v", s.MemGB)
	}
}

func TestAvgUtilization(t *testing.T) {
	tr := NewTrace([]string{"a", "b"}, 1)
	tr.Series["a"] = []Sample{{CPU: 1, MemGB: 2, NetInMBps: 10, DiskReadMBps: 1}}
	tr.Series["b"] = []Sample{{CPU: 0, MemGB: 4, NetOutMBps: 30, DiskWriteMBps: 3}}
	u := AvgUtilization(tr)
	if !almost(u.CPUUserPct, 50, 1e-9) {
		t.Errorf("cpu = %v", u.CPUUserPct)
	}
	if !almost(u.MemUsedGB, 3, 1e-9) {
		t.Errorf("mem = %v", u.MemUsedGB)
	}
	if !almost(u.NetMBps, 20, 1e-9) {
		t.Errorf("net = %v", u.NetMBps)
	}
	if !almost(u.DiskKBps, 2000, 1e-9) {
		t.Errorf("disk = %v", u.DiskKBps)
	}
}

func TestNodeBalance(t *testing.T) {
	tr := NewTrace([]string{"a", "b"}, 1)
	tr.Series["a"] = []Sample{{Time: 0, CPU: 1}, {Time: 1, CPU: 0.5}}
	tr.Series["b"] = []Sample{{Time: 0, CPU: 0}, {Time: 1, CPU: 0.5}}
	bs := NodeBalance(tr)
	if len(bs.Times) != 2 {
		t.Fatalf("series length = %d", len(bs.Times))
	}
	if !almost(bs.CPU[0], 50, 1e-9) { // stddev of {100, 0} = 50 pp
		t.Errorf("cpu sd[0] = %v", bs.CPU[0])
	}
	if !almost(bs.CPU[1], 0, 1e-9) {
		t.Errorf("cpu sd[1] = %v", bs.CPU[1])
	}
}

func TestWriteTraceCSV(t *testing.T) {
	tr := NewTrace([]string{"a"}, 1)
	tr.Series["a"] = []Sample{{Time: 0, CPU: 0.5, MemGB: 1}, {Time: 1, CPU: 0.25}}
	var buf strings.Builder
	if err := WriteTraceCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "time_s,node,cpu_util") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,a,0.5,1") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteBalanceCSV(t *testing.T) {
	b := BalanceSeries{Times: []float64{0, 1}, CPU: []float64{1, 2}, Net: []float64{3, 4}, Disk: []float64{5, 6}}
	var buf strings.Builder
	if err := WriteBalanceCSV(&buf, b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("csv rows = %d", got)
	}
}

func TestWriteTaskRowsCSV(t *testing.T) {
	rows := []TaskRow{{TaskID: 1, StageID: 2, Executor: "n", Duration: 3.5, UsedGPU: true}}
	var buf strings.Builder
	if err := WriteTaskRowsCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,2,n,") || !strings.Contains(buf.String(), "true") {
		t.Fatalf("csv = %q", buf.String())
	}
}
