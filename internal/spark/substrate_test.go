package spark

import (
	"fmt"
	"slices"
	"testing"

	"rupam/internal/monitor"
	"rupam/internal/wal"
)

// hearingScheduler logs the node events its runtime passes on.
type hearingScheduler struct {
	*DefaultScheduler
	name     string
	heard    *[]string
	onChange func() // runs inside ExecutorSetChanged when set
}

func (s *hearingScheduler) Heartbeat(node string, nm *monitor.NodeMetrics) {
	*s.heard = append(*s.heard, s.name+" heartbeat "+node)
}

func (s *hearingScheduler) ExecutorSetChanged() {
	*s.heard = append(*s.heard, s.name+" executor-set")
	if s.onChange != nil {
		s.onChange()
	}
	s.DefaultScheduler.ExecutorSetChanged()
}

// TestSubstrateFansNodeEvents attaches a crashed, a finished and a live
// runtime to one substrate and checks that each heartbeat and executor
// restart reaches the runtimes that should hear it, in attach order, with
// exactly one owner round per event, and that a runtime attached during
// a fan first hears the next event.
func TestSubstrateFansNodeEvents(t *testing.T) {
	w := newWorld(t)
	var heard []string
	rounds := 0
	sub := NewSubstrate(w.eng, w.clu, SubstrateOptions{
		Seed:      1,
		Scheduler: NewDefaultScheduler(),
		Round:     func() { rounds++ },
	})
	attach := func(name string, cfg Config, hooks Hooks) (*Runtime, *hearingScheduler) {
		s := &hearingScheduler{DefaultScheduler: NewDefaultScheduler(), name: name, heard: &heard}
		return NewRuntimeOn(w.eng, w.clu, s, cfg, sub, hooks), s
	}

	crashed, crashedSched := attach("crashed", Config{Seed: 1, WAL: wal.New(nil, wal.Options{})}, Hooks{})
	finished, _ := attach("finished", Config{Seed: 2}, Hooks{Done: sub.Mon.Stop})
	live, _ := attach("live", Config{Seed: 3}, Hooks{CanLaunch: func(string) bool { return false }})
	crashed.Start(localApp("crashed", 2))
	crashed.CrashDriver(1000)
	finished.Start(localApp("finished", 2))
	live.Start(localApp("live", 2))
	sub.Mon.Start()
	for !finished.Done() && w.eng.Step() {
	}
	if !finished.Done() || !crashed.Crashed() || live.Done() {
		t.Fatal("setup: want one finished, one crashed and one live driver")
	}

	event := func(what string, fire func(), want ...string) {
		t.Helper()
		heard, rounds = nil, 0
		fire()
		if !slices.Equal(heard, want) {
			t.Errorf("%s reached %q, want %q", what, heard, want)
		}
		if rounds != 1 {
			t.Errorf("%s ran %d owner rounds, want 1", what, rounds)
		}
	}
	hb := []int{crashed.hbDelivered, finished.hbDelivered, live.hbDelivered}
	event("heartbeat", func() { sub.Mon.OnHeartbeat("fast", &monitor.NodeMetrics{}) },
		"live heartbeat fast")
	if got := fmt.Sprint(crashed.hbDelivered-hb[0], finished.hbDelivered-hb[1], live.hbDelivered-hb[2]); got != "0 0 1" {
		t.Errorf("heartbeats delivered (crashed, finished, live) = %s, want 0 0 1", got)
	}

	// The crashed driver's scheduler attaches a newcomer mid-fan: the fan
	// in progress must not reach it, and attaching drops the finished
	// runtime.
	var late *Runtime
	crashedSched.onChange = func() {
		crashedSched.onChange = nil
		late, _ = attach("late", Config{Seed: 4}, Hooks{})
	}
	event("executor restart", sub.Execs["slow"].OnRestart,
		"crashed executor-set", "live executor-set")
	if !slices.Equal(sub.rts, []*Runtime{crashed, live, late}) {
		t.Errorf("attached runtimes after the restart: %d, want crashed, live, late", len(sub.rts))
	}
	event("second executor restart", sub.Execs["gpu"].OnRestart,
		"crashed executor-set", "live executor-set", "late executor-set")
}
