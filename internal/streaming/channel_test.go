package streaming

import (
	"math"
	"slices"
	"testing"
)

// live returns the queue's live cohorts.
func (q *recQueue) live() []cohort { return q.cohorts[q.head:] }

func TestRecQueueFIFOAcrossSplit(t *testing.T) {
	var q recQueue
	q.push(3, 1)
	q.push(5, 2)
	q.push(2, 3)
	q.push(1, 3) // same birth time coalesces into the tail cohort

	got := q.pop(4, nil)
	if want := []cohort{{3, 1}, {1, 2}}; !slices.Equal(got, want) {
		t.Fatalf("first pop = %v, want %v", got, want)
	}
	if q.count != 7 {
		t.Fatalf("count after split = %v, want 7", q.count)
	}
	got = q.pop(100, got)
	if want := []cohort{{4, 2}, {3, 3}}; !slices.Equal(got, want) {
		t.Fatalf("second pop = %v, want %v", got, want)
	}
	if q.count != 0 || len(q.live()) != 0 {
		t.Fatalf("drained queue holds count %v, cohorts %v", q.count, q.live())
	}
	if got = q.pop(1, got); len(got) != 0 {
		t.Fatalf("pop of an empty queue returned %v", got)
	}
}

func TestRecQueueSteadyStateKeepsCapacity(t *testing.T) {
	var q recQueue
	var buf []cohort
	for i := 0; i < 10000; i++ {
		q.push(2, float64(i))
		if i >= 4 {
			buf = q.pop(2, buf)
			if len(buf) != 1 || buf[0].born != float64(i-4) {
				t.Fatalf("pop %d = %v, want the cohort born at %d", i, buf, i-4)
			}
		}
	}
	if c := cap(q.cohorts); c > 16 {
		t.Fatalf("backing array grew to %d for 5 live cohorts", c)
	}
	if n := testing.AllocsPerRun(100, func() {
		q.push(2, -1)
		buf = q.pop(2, buf)
	}); n != 0 {
		t.Fatalf("steady push/pop allocates %v times", n)
	}
}

func TestRecQueuePopBufferDoesNotAlias(t *testing.T) {
	var q recQueue
	for i := 0; i < 8; i++ {
		q.push(1, float64(i))
	}
	buf := q.pop(3, nil)
	want := slices.Clone(buf)
	// Enough pushes to compact the live suffix and regrow the backing
	// array; neither may write through to the popped cohorts.
	for i := 8; i < 40; i++ {
		q.push(1, float64(i))
	}
	if !slices.Equal(buf, want) {
		t.Fatalf("pushes after a pop rewrote the popped cohorts: %v, want %v", buf, want)
	}
	buf = q.pop(2, buf)
	if want := []cohort{{1, 3}, {1, 4}}; !slices.Equal(buf, want) {
		t.Fatalf("pop into a reused buffer = %v, want %v", buf, want)
	}
	rest := q.pop(q.count, nil)
	for i, c := range rest {
		if c.count != 1 || c.born != float64(5+i) {
			t.Fatalf("cohort %d after reuse = %v, want {1 %d}", i, c, 5+i)
		}
	}
	if len(rest) != 35 {
		t.Fatalf("%d cohorts left, want 35", len(rest))
	}
}

func TestRecQueueMergeKeepsCountAndWeightedBirth(t *testing.T) {
	const extra = 5
	var q recQueue
	var total, merged, mergedBirth float64
	for i := 0; i < maxCohorts+extra; i++ {
		count := float64(1 + i%7)
		q.push(count, float64(i))
		total += count
		if i <= extra {
			merged += count
			mergedBirth += count * float64(i)
		}
	}
	if q.count != total {
		t.Fatalf("count = %v, want %v", q.count, total)
	}
	live := q.live()
	if len(live) != maxCohorts {
		t.Fatalf("%d live cohorts, want the cap %d", len(live), maxCohorts)
	}
	sum := 0.0
	for _, c := range live {
		sum += c.count
	}
	if sum != total {
		t.Fatalf("cohorts sum to %v, want %v", sum, total)
	}
	head := live[0]
	if head.count != merged {
		t.Fatalf("merged head count = %v, want %v", head.count, merged)
	}
	if want := mergedBirth / merged; math.Abs(head.born-want) > 1e-9*want {
		t.Fatalf("merged head born = %v, want count-weighted %v", head.born, want)
	}
	if live[1].born != extra+1 {
		t.Fatalf("cohort after the merged head born %v, want %d", live[1].born, extra+1)
	}
	if c := cap(q.cohorts); c > 2*maxCohorts+extra {
		t.Fatalf("backing array grew to %d for %d live cohorts", c, maxCohorts)
	}
}

func TestChannelConsumeArrivedPrefix(t *testing.T) {
	ch := &channel{capacity: 10, bytesPerRecord: 100}
	ch.push(4, 1)
	ch.push(3, 2)
	if f := ch.free(); f != 3 {
		t.Fatalf("free = %v, want 3", f)
	}
	ch.paused = true
	if f := ch.free(); f != 0 {
		t.Fatalf("paused channel grants %v credit", f)
	}
	ch.paused = false

	ch.arrived = 5
	got := ch.consume(6, nil)
	if want := []cohort{{4, 1}, {1, 2}}; !slices.Equal(got, want) {
		t.Fatalf("consume = %v, want %v (bounded by the arrived prefix)", got, want)
	}
	if ch.arrived != 0 || ch.delivered != 5 || ch.q.count != 2 || ch.unarrived() != 2 {
		t.Fatalf("after consume: arrived %v delivered %v queued %v unarrived %v",
			ch.arrived, ch.delivered, ch.q.count, ch.unarrived())
	}
	if ch.emitted != 7 || ch.maxQueue != 7 {
		t.Fatalf("emitted %v maxQueue %v, want 7 and 7", ch.emitted, ch.maxQueue)
	}

	// Wire credit converts to arrivals at the upstream record size.
	ch.shipCredit = 150
	ch.settleWire()
	if ch.arrived != 1.5 || ch.shipCredit != 0 {
		t.Fatalf("settle: arrived %v credit %v, want 1.5 and 0", ch.arrived, ch.shipCredit)
	}
	got = ch.consume(10, got)
	if want := []cohort{{1.5, 2}}; !slices.Equal(got, want) {
		t.Fatalf("consume into a reused buffer = %v, want %v", got, want)
	}
}
