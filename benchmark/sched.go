package main

import (
	"time"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/monitor"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// schedClock accumulates one scheduler's inclusive host time and call
// count. Calls the scheduler makes back into itself are counted but not
// timed twice.
type schedClock struct {
	seconds float64
	calls   int
	depth   int
}

func (c *schedClock) begin() time.Time {
	c.calls++
	c.depth++
	if c.depth > 1 {
		return time.Time{}
	}
	return time.Now()
}

func (c *schedClock) end(start time.Time) {
	c.depth--
	if c.depth == 0 {
		c.seconds += time.Since(start).Seconds()
	}
}

// timedScheduler is a spark.Scheduler that forwards every call to inner
// and times it. It also forwards each optional capability the runtime
// and the harnesses probe for; where inner lacks one, the forwarded call
// does what the runtime does when the capability is absent.
type timedScheduler struct {
	inner spark.Scheduler
	clk   *schedClock
}

var (
	_ spark.CacheRelocator    = (*timedScheduler)(nil)
	_ spark.ExecutorSetAware  = (*timedScheduler)(nil)
	_ spark.ExecutorLossAware = (*timedScheduler)(nil)
	_ spark.RecoveryAware     = (*timedScheduler)(nil)
)

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Bind(rt *spark.Runtime) { s.inner.Bind(rt) }

func (s *timedScheduler) HeapFor(node *cluster.Node) int64 {
	t := s.clk.begin()
	defer s.clk.end(t)
	return s.inner.HeapFor(node)
}

func (s *timedScheduler) StageSubmitted(st *task.Stage) {
	t := s.clk.begin()
	s.inner.StageSubmitted(st)
	s.clk.end(t)
}

func (s *timedScheduler) Resubmit(tk *task.Task, st *task.Stage) {
	t := s.clk.begin()
	s.inner.Resubmit(tk, st)
	s.clk.end(t)
}

func (s *timedScheduler) TaskEnded(tk *task.Task, r *executor.Run, out executor.Outcome) {
	t := s.clk.begin()
	s.inner.TaskEnded(tk, r, out)
	s.clk.end(t)
}

func (s *timedScheduler) Heartbeat(node string, nm *monitor.NodeMetrics) {
	t := s.clk.begin()
	s.inner.Heartbeat(node, nm)
	s.clk.end(t)
}

func (s *timedScheduler) Schedule() {
	t := s.clk.begin()
	s.inner.Schedule()
	s.clk.end(t)
}

func (s *timedScheduler) RelocatesCache() bool {
	cr, ok := s.inner.(spark.CacheRelocator)
	return ok && cr.RelocatesCache()
}

func (s *timedScheduler) ExecutorSetChanged() {
	if esa, ok := s.inner.(spark.ExecutorSetAware); ok {
		t := s.clk.begin()
		esa.ExecutorSetChanged()
		s.clk.end(t)
	}
}

func (s *timedScheduler) ExecutorLost(node string) {
	if ela, ok := s.inner.(spark.ExecutorLossAware); ok {
		t := s.clk.begin()
		ela.ExecutorLost(node)
		s.clk.end(t)
	}
}

func (s *timedScheduler) DriverRecovery(st *wal.State) {
	if ra, ok := s.inner.(spark.RecoveryAware); ok {
		t := s.clk.begin()
		ra.DriverRecovery(st)
		s.clk.end(t)
	}
}

// PendingTasks forwards the queue-depth probe of the tenant layer and
// the chaos checkers; an inner scheduler without it reports none, which
// is how both probes treat its absence.
func (s *timedScheduler) PendingTasks() int {
	pc, ok := s.inner.(interface{ PendingTasks() int })
	if !ok {
		return 0
	}
	return pc.PendingTasks()
}
