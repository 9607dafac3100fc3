package perf

import (
	"testing"

	"rupam/internal/simx"
)

// TestPoolSteadyState is the leak test: under a fixed-concurrency
// workload the timer-node pool must reach steady state — after the
// first wave warms the free list, further waves allocate nothing, and
// a drained engine holds every node it ever allocated on the free
// list (nothing stuck in the heap, nothing dropped for the GC to
// collect and the next wave to re-allocate).
func TestPoolSteadyState(t *testing.T) {
	eng := simx.NewEngine()
	const depth, events = 48, 20_000

	wave := func() {
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired < events {
				eng.Schedule(0.001, tick)
			}
		}
		for i := 0; i < depth; i++ {
			eng.Schedule(0.001, tick)
		}
		eng.Run()
	}

	wave()
	warm := eng.PoolStats()
	if warm.InUse != 0 {
		t.Fatalf("drained engine holds %d nodes in the heap", warm.InUse)
	}
	if warm.Free != int(warm.News) {
		t.Fatalf("drained engine leaked nodes: %d allocated, %d on the free list", warm.News, warm.Free)
	}
	if warm.News > 4*depth {
		t.Fatalf("pool over-allocates: %d nodes for concurrency %d", warm.News, depth)
	}

	for i := 0; i < 5; i++ {
		wave()
	}
	steady := eng.PoolStats()
	if steady.News != warm.News {
		t.Fatalf("pool not steady: %d fresh allocations after warmup (total %d, warm %d)",
			steady.News-warm.News, steady.News, warm.News)
	}
	if steady.InUse != 0 || steady.Free != int(steady.News) {
		t.Fatalf("pool leaked under repetition: in-use %d, free %d, allocated %d",
			steady.InUse, steady.Free, steady.News)
	}
	if steady.Puts != steady.Gets+steady.News {
		t.Fatalf("take/return imbalance on a drained engine: %d+%d taken, %d returned",
			steady.Gets, steady.News, steady.Puts)
	}
}
