package simx

import (
	"testing"
	"testing/quick"
)

func TestSpaceAllocRelease(t *testing.T) {
	s := NewSpace("mem", 100)
	s.ForceAlloc(60)
	if s.Used() != 60 || s.Free() != 40 {
		t.Fatalf("used=%d free=%d", s.Used(), s.Free())
	}
	s.Release(60)
	if s.Used() != 0 {
		t.Fatalf("used=%d after release", s.Used())
	}
}

func TestSpaceForceAllocOvercommit(t *testing.T) {
	s := NewSpace("mem", 100)
	s.ForceAlloc(150)
	if s.Free() != -50 {
		t.Fatalf("free = %d over capacity, want -50", s.Free())
	}
	s.Release(150)
	if s.Free() != 100 {
		t.Fatalf("free = %d after release, want 100", s.Free())
	}
}

func TestSpaceUtilizationAndAvg(t *testing.T) {
	s := NewSpace("mem", 200)
	s.ForceAlloc(100)
	if got := s.Utilization(); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	s.Release(100)
	if got := s.Utilization(); got != 0 {
		t.Fatalf("utilization = %v", got)
	}
}

func TestSpaceReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on release underflow")
		}
	}()
	s := NewSpace("mem", 10)
	s.Release(1)
}

func TestSpaceSetCapacity(t *testing.T) {
	s := NewSpace("mem", 100)
	s.ForceAlloc(50)
	s.SetCapacity(60)
	if s.Free() != 10 {
		t.Fatalf("free = %d after shrink", s.Free())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic shrinking below usage")
		}
	}()
	s.SetCapacity(40)
}

func TestTokensAcquireRelease(t *testing.T) {
	g := NewTokens("gpu", 2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("could not take both tokens")
	}
	if g.TryAcquire() {
		t.Fatal("third token granted from pool of 2")
	}
	if g.Idle() != 0 || g.InUse() != 2 || g.Utilization() != 1 {
		t.Fatalf("state: idle=%d inuse=%d util=%v", g.Idle(), g.InUse(), g.Utilization())
	}
	g.Release()
	if g.Idle() != 1 {
		t.Fatalf("idle = %d after release", g.Idle())
	}
}

func TestTokensEmptyPool(t *testing.T) {
	g := NewTokens("gpu", 0)
	if g.TryAcquire() {
		t.Fatal("token from empty pool")
	}
	if g.Utilization() != 0 {
		t.Fatal("empty pool utilization not 0")
	}
}

func TestTokensReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on token underflow")
		}
	}()
	NewTokens("gpu", 1).Release()
}

// Property: any interleaving of Release and ForceAlloc-if-Free-allows
// (the executor's pattern) keeps 0 <= used <= capacity and free+used ==
// capacity.
func TestQuickSpaceInvariant(t *testing.T) {
	f := func(ops []int16) bool {
		s := NewSpace("mem", 1000)
		var held []int64
		for _, op := range ops {
			if op >= 0 {
				n := int64(op % 300)
				if s.Free() >= n {
					s.ForceAlloc(n)
					held = append(held, n)
				}
			} else if len(held) > 0 {
				s.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
			if s.Used() < 0 || s.Used() > 1000 || s.Used()+s.Free() != 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
