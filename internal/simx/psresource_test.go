package simx

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPSSingleClaimTiming(t *testing.T) {
	eng := NewEngine()
	cpu := NewPSResource(eng, "cpu", 4, 2) // 2 cores at 2 GHz
	done := -1.0
	cpu.Acquire(10, func() { done = eng.Now() }) // 10 Gc at 2 GHz → 5 s
	eng.Run()
	if !almost(done, 5, 1e-9) {
		t.Fatalf("single claim finished at %v, want 5", done)
	}
}

func TestPSEqualSharing(t *testing.T) {
	eng := NewEngine()
	disk := NewPSResource(eng, "disk", 100, 0) // 100 MB/s, no per-claim cap
	var t1, t2 float64
	disk.Acquire(100, func() { t1 = eng.Now() })
	disk.Acquire(100, func() { t2 = eng.Now() })
	eng.Run()
	// Both share 100 MB/s → each at 50 → both done at 2 s.
	if !almost(t1, 2, 1e-9) || !almost(t2, 2, 1e-9) {
		t.Fatalf("shared claims finished at %v, %v; want 2, 2", t1, t2)
	}
}

func TestPSPerClaimCap(t *testing.T) {
	eng := NewEngine()
	cpu := NewPSResource(eng, "cpu", 8, 2) // 4 cores at 2 GHz
	var done float64
	cpu.Acquire(10, func() { done = eng.Now() })
	eng.Run()
	// One task cannot exceed one core: 10/2 = 5 s, not 10/8.
	if !almost(done, 5, 1e-9) {
		t.Fatalf("capped claim finished at %v, want 5", done)
	}
}

func TestPSContentionOnlyBeyondCores(t *testing.T) {
	eng := NewEngine()
	cpu := NewPSResource(eng, "cpu", 4, 2) // 2 cores at 2 GHz
	times := make([]float64, 3)
	for i := 0; i < 3; i++ {
		i := i
		cpu.Acquire(6, func() { times[i] = eng.Now() })
	}
	eng.Run()
	// 3 claims on 2 cores: each gets 4/3 GHz until the first finishes at
	// 4.5 s; the remaining two then run at 2 GHz each... all demands equal
	// so all finish simultaneously at 18 Gc total / 4 GHz = 4.5 s.
	for i, ti := range times {
		if !almost(ti, 4.5, 1e-9) {
			t.Fatalf("claim %d finished at %v, want 4.5", i, ti)
		}
	}
}

func TestPSStaggeredCompletion(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 1, 0)
	var small, large float64
	r.Acquire(1, func() { small = eng.Now() })
	r.Acquire(3, func() { large = eng.Now() })
	eng.Run()
	// Shared at 0.5 each until small done (t=2); large has 2 left at rate 1 → t=4.
	if !almost(small, 2, 1e-9) || !almost(large, 4, 1e-9) {
		t.Fatalf("small=%v large=%v, want 2, 4", small, large)
	}
}

func TestPSCancelSpeedsOthers(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 1, 0)
	var done float64
	c := r.Acquire(10, nil)
	r.Acquire(4, func() { done = eng.Now() })
	eng.Schedule(2, func() {
		// After 2 s both have been served 1 unit. Cancelling c should
		// return ~9 remaining and let the other finish at rate 1.
		rem := c.Cancel()
		if !almost(rem, 9, 1e-6) {
			t.Errorf("cancel returned %v, want 9", rem)
		}
	})
	eng.Run()
	// Other claim: 1 unit by t=2, then 3 remaining at rate 1 → t=5.
	if !almost(done, 5, 1e-6) {
		t.Fatalf("done = %v, want 5", done)
	}
}

func TestPSZeroDemandCompletesAsync(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 1, 0)
	fired := false
	r.Acquire(0, func() { fired = true })
	if fired {
		t.Fatal("zero-demand claim fired synchronously")
	}
	eng.Run()
	if !fired {
		t.Fatal("zero-demand claim never fired")
	}
}

func TestPSUtilization(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 2, 1)
	if r.Utilization() != 0 {
		t.Fatal("idle resource has non-zero utilization")
	}
	r.Acquire(5, nil)
	if !almost(r.Utilization(), 0.5, 1e-9) {
		t.Fatalf("one capped claim on 2-capacity: util = %v, want 0.5", r.Utilization())
	}
	r.Acquire(5, nil)
	if !almost(r.Utilization(), 1, 1e-9) {
		t.Fatalf("two claims: util = %v, want 1", r.Utilization())
	}
	eng.Run()
	if r.Utilization() != 0 {
		t.Fatal("drained resource still utilized")
	}
}

func TestPSTotalServed(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 3, 0)
	r.Acquire(7, nil)
	r.Acquire(5, nil)
	eng.Run()
	if got := r.TotalServed(); !almost(got, 12, 1e-6) {
		t.Fatalf("total served = %v, want 12", got)
	}
}

func TestPSSetCapacity(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 1, 0)
	var done float64
	r.Acquire(4, func() { done = eng.Now() })
	eng.Schedule(2, func() { r.SetCapacity(2) })
	eng.Run()
	// 2 units by t=2, remaining 2 at rate 2 → t=3.
	if !almost(done, 3, 1e-9) {
		t.Fatalf("done = %v, want 3", done)
	}
}

func TestPSRemaining(t *testing.T) {
	eng := NewEngine()
	r := NewPSResource(eng, "r", 1, 0)
	c := r.Acquire(10, nil)
	eng.Schedule(4, func() {
		if got := c.Remaining(); !almost(got, 6, 1e-6) {
			t.Errorf("remaining = %v, want 6", got)
		}
	})
	eng.Run()
	if c.Remaining() != 0 {
		t.Fatal("finished claim has non-zero remaining")
	}
}

func TestPSCompletionOrderDeterministic(t *testing.T) {
	// Claims with identical demand finish simultaneously; callbacks must
	// fire in acquisition order on every run.
	for trial := 0; trial < 20; trial++ {
		eng := NewEngine()
		r := NewPSResource(eng, "r", 10, 0)
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			r.Acquire(5, func() { order = append(order, i) })
		}
		eng.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("trial %d: completion order %v", trial, order)
			}
		}
	}
}

func TestPSNoLivelockOnTinyResidues(t *testing.T) {
	// Regression: floating-point residue must not re-arm zero-length
	// timers forever. Chain many awkward demands and ensure the run ends.
	eng := NewEngine()
	r := NewPSResource(eng, "r", 3.1415926, 1.1)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 2000 {
			r.Acquire(0.0317+float64(n%7)*1e-7, chain)
		}
	}
	r.Acquire(0.1, chain)
	r.Acquire(17.3, nil)
	eng.Run()
	if n != 2000 {
		t.Fatalf("chain stalled at %d", n)
	}
}

func TestPSInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive capacity")
		}
	}()
	NewPSResource(NewEngine(), "bad", 0, 0)
}

// Property: total service conservation — the sum of demands equals
// TotalServed after all claims complete, for any demand set.
func TestQuickServiceConservation(t *testing.T) {
	f := func(demands []uint16) bool {
		eng := NewEngine()
		r := NewPSResource(eng, "r", 2.5, 1)
		var want float64
		for _, d := range demands {
			dem := float64(d%500) / 10
			if dem <= 0 {
				continue
			}
			want += dem
			r.Acquire(dem, nil)
		}
		eng.Run()
		return almost(r.TotalServed(), want, 1e-3*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: makespan is bounded below by both the critical path
// (max demand / per-claim rate) and the capacity bound (sum / capacity).
func TestQuickMakespanBounds(t *testing.T) {
	f := func(demands []uint16) bool {
		eng := NewEngine()
		capTotal, capClaim := 4.0, 1.0
		r := NewPSResource(eng, "r", capTotal, capClaim)
		var sum, maxDem float64
		n := 0
		for _, d := range demands {
			dem := float64(d%300)/10 + 0.1
			sum += dem
			if dem > maxDem {
				maxDem = dem
			}
			r.Acquire(dem, nil)
			n++
		}
		if n == 0 {
			return true
		}
		eng.Run()
		lower := math.Max(maxDem/capClaim, sum/capTotal)
		return eng.Now() >= lower-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
