package simx

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(2, func() { order = append(order, 2) })
	eng.Schedule(1, func() { order = append(order, 1) })
	eng.Schedule(3, func() { order = append(order, 3) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 3 {
		t.Fatalf("clock = %v, want 3", eng.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(1, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of order: %v", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	eng := NewEngine()
	fired := false
	tm := eng.Schedule(1, func() { fired = true })
	tm.Cancel()
	eng.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
}

// TestEnginePendingSkipsCancelled pins that Pending counts only events
// still due to fire: a cancelled event stays queued as a tombstone until
// the loop reaches it, and must not count as pending before then.
func TestEnginePendingSkipsCancelled(t *testing.T) {
	eng := NewEngine()
	tm := eng.Schedule(10, func() {})
	eng.Schedule(20, func() {})
	if got := eng.Pending(); got != 2 {
		t.Fatalf("Pending() = %d with two events queued, want 2", got)
	}
	tm.Cancel()
	tm.Cancel() // a second cancel is a no-op
	eng.RunUntil(5)
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after cancelling one of two events, want 1", got)
	}
	eng.RunUntil(15)
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after passing the tombstone, want 1", got)
	}
	if !eng.Step() || eng.Pending() != 0 {
		t.Fatalf("Pending() = %d after the last event fired, want 0", eng.Pending())
	}
	tm.Cancel() // a stale handle must not touch the count
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after cancelling a stale handle, want 0", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	var times []float64
	eng.Schedule(1, func() {
		times = append(times, eng.Now())
		eng.Schedule(1, func() {
			times = append(times, eng.Now())
		})
	})
	eng.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestEngineRunUntil(t *testing.T) {
	eng := NewEngine()
	count := 0
	eng.Schedule(1, func() { count++ })
	eng.Schedule(5, func() { count++ })
	eng.RunUntil(2)
	if count != 1 {
		t.Fatalf("RunUntil(2) ran %d events", count)
	}
	if eng.Now() != 2 {
		t.Fatalf("clock = %v after RunUntil(2)", eng.Now())
	}
	eng.Run()
	if count != 2 {
		t.Fatalf("remaining event lost")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Schedule(-5, func() { fired = true })
	eng.Run()
	if !fired || eng.Now() != 0 {
		t.Fatalf("negative delay mishandled: fired=%v now=%v", fired, eng.Now())
	}
}

func TestEngineStep(t *testing.T) {
	eng := NewEngine()
	n := 0
	eng.Schedule(1, func() { n++ })
	eng.Schedule(2, func() { n++ })
	if !eng.Step() || n != 1 {
		t.Fatalf("first step: n=%d", n)
	}
	if !eng.Step() || n != 2 {
		t.Fatalf("second step: n=%d", n)
	}
	if eng.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestEngineReentrantRunPanics(t *testing.T) {
	eng := NewEngine()
	eng.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		eng.Run()
	})
	eng.Run()
}

// Property: however events are scheduled, they fire in non-decreasing
// time order.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		eng := NewEngine()
		last := -1.0
		ok := true
		for _, d := range delays {
			eng.Schedule(float64(d)/100, func() {
				if eng.Now() < last {
					ok = false
				}
				last = eng.Now()
			})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
