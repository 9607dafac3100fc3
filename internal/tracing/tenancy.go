package tracing

import "fmt"

// This file is the multi-tenant track: application lifecycle instants
// (arrival → admission/rejection → start → finish) and pool-scoped spans,
// recorded by the tenant manager so a trace of a tenancy run shows which
// pool owned each application and how long it queued. Like every other
// collector method these are nil-receiver safe and allocation-only.

// appInstant files one application lifecycle point event on the driver
// track under the "tenant" category. The exported methods check for a nil
// collector before building its arguments, so a disabled trace allocates
// nothing.
func (c *Collector) appInstant(name, app, pool string, args map[string]interface{}) {
	args["app"] = app
	if pool != "" {
		args["pool"] = pool
	}
	c.addInstant(fmt.Sprintf("%s %s", name, app), "tenant", "", args)
}

// AppArrived records an application entering the system (open-loop
// arrival generator submission).
func (c *Collector) AppArrived(app, pool, workload string) {
	if c == nil {
		return
	}
	c.appInstant("app arrived", app, pool, map[string]interface{}{"workload": workload})
}

// AppAdmitted records admission control accepting an application into the
// pending queue.
func (c *Collector) AppAdmitted(app, pool string, queueDepth int) {
	if c == nil {
		return
	}
	c.appInstant("app admitted", app, pool, map[string]interface{}{"queue_depth": queueDepth})
}

// AppRejected records admission control turning an application away
// (pending queue full).
func (c *Collector) AppRejected(app, pool, reason string) {
	if c == nil {
		return
	}
	c.appInstant("app rejected", app, pool, map[string]interface{}{"reason": reason})
}

// AppStarted records an application's driver booting (a concurrency slot
// freed up and the app left the pending queue).
func (c *Collector) AppStarted(app, pool string, waited float64) {
	if c == nil {
		return
	}
	c.appInstant("app started", app, pool, map[string]interface{}{"queued_for": waited})
}

// AppFinished records an application completing (or aborting) and frees
// its span on the tenant track.
func (c *Collector) AppFinished(app, pool string, duration float64, aborted bool) {
	if c == nil {
		return
	}
	c.appInstant("app finished", app, pool, map[string]interface{}{
		"duration": duration,
		"aborted":  aborted,
	})
}

// LeaseChanged records a dynamic-allocation lease transition for an
// application on a node: positive cores for a grant, zero for a release.
func (c *Collector) LeaseChanged(app, node string, cores int, reason string) {
	if c == nil {
		return
	}
	c.addInstant(fmt.Sprintf("lease %s/%s=%d", app, node, cores), "tenant", node,
		map[string]interface{}{"app": app, "cores": cores, "reason": reason})
}
