package tracing

import "fmt"

// This file is the elastic-substrate track: spot-preemption lifecycle
// instants (notice → drain moves → kill) recorded by the driver, and
// instance-market events (acquisition, release, capacity denial) recorded
// by the tenant autoscaler. All methods are nil-receiver safe.

// elasticInstant files one point event under the "elastic" category,
// optionally scoped to an application and pinned to a node's track. The
// exported methods check for a nil collector before building its
// arguments, so a disabled trace allocates nothing.
func (c *Collector) elasticInstant(name, app, node string, args map[string]interface{}) {
	if app != "" {
		args["app"] = app
	}
	c.addInstant(name, "elastic", node, args)
}

// PreemptNotice records the driver hearing a spot-reclamation warning for
// a node (the grace window opens and the drain begins).
func (c *Collector) PreemptNotice(app, node string, grace float64) {
	if c == nil {
		return
	}
	c.elasticInstant(fmt.Sprintf("preempt notice %s", node), app, node,
		map[string]interface{}{"grace": grace})
}

// DrainMoved records one shuffle block re-replicated off a doomed node
// during its grace window.
func (c *Collector) DrainMoved(app, node, dest string, stage, index int, bytes int64) {
	if c == nil {
		return
	}
	c.elasticInstant(fmt.Sprintf("drain %s→%s", node, dest), app, node,
		map[string]interface{}{"stage": stage, "index": index, "bytes": bytes, "dest": dest})
}

// PreemptKill records the reclaimed instance dying: resolution is
// "drained" (nothing of value lost) or "killed" (attempts or outputs went
// down with it).
func (c *Collector) PreemptKill(app, node, resolution string, attempts int) {
	if c == nil {
		return
	}
	c.elasticInstant(fmt.Sprintf("preempt kill %s (%s)", node, resolution), app, node,
		map[string]interface{}{"resolution": resolution, "attempts_killed": attempts})
}

// InstanceAcquired records the autoscaler taking an instance from the
// market (billing is "on-demand" or "spot").
func (c *Collector) InstanceAcquired(node, billing string, price float64) {
	if c == nil {
		return
	}
	c.elasticInstant(fmt.Sprintf("acquire %s (%s)", node, billing), "", node,
		map[string]interface{}{"billing": billing, "price_per_hour": price})
}

// InstanceReleased records the autoscaler returning an instance (idle
// scale-down or preemption), with the hold's accrued cost.
func (c *Collector) InstanceReleased(node, reason string, heldFor, cost float64) {
	if c == nil {
		return
	}
	c.elasticInstant(fmt.Sprintf("release %s", node), "", node,
		map[string]interface{}{"reason": reason, "held_for": heldFor, "cost": cost})
}

// InstanceDenied records a pilot-job acquisition attempt finding no
// capacity, and the deterministic backoff before the retry.
func (c *Collector) InstanceDenied(wanted, attempt int, retryIn float64) {
	if c == nil {
		return
	}
	c.elasticInstant("acquire denied", "", "",
		map[string]interface{}{"wanted": wanted, "attempt": attempt, "retry_in": retryIn})
}
