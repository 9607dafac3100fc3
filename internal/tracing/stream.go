package tracing

// Streaming-operator events: phase spans on a per-node "stream" track
// (operator running windows, drains, state handoffs) plus migration
// instants. Placement decisions reuse the scheduler Decision audit — the
// placer records one Decision per operator with the candidate nodes and
// their rejection reasons.

// StreamSpan records a streaming-operator phase window [now, now+duration]
// on the node's stream track: "run" between placement/migration
// boundaries, "drain" and "handoff" during a migration. duration <= 0
// means open-ended (still running at the end of the run); the exporter
// closes it at the trace's end.
func (c *Collector) StreamSpan(node, op, phase, detail string, duration float64) {
	if c == nil {
		return
	}
	start := c.now()
	end := -1.0
	if duration > 0 {
		end = start + duration
	}
	c.StreamSpanAt(node, op, phase, detail, start, end)
}

// StreamSpanAt is StreamSpan with an explicit window, for phases whose
// length is only known at completion — a drain's duration depends on the
// backlog, so the runtime records the span once the drain finishes.
// end < 0 means open-ended.
func (c *Collector) StreamSpanAt(node, op, phase, detail string, start, end float64) {
	if c == nil {
		return
	}
	if end > c.maxTime {
		c.maxTime = end
	}
	args := map[string]interface{}{"op": op}
	if detail != "" {
		args["detail"] = detail
	}
	c.spans = append(c.spans, span{
		seq: c.nextSeq(), start: start, end: end,
		name: op + "/" + phase, cat: "stream", node: node, args: args,
	})
}

// OperatorMigrated records a completed operator migration on the
// destination node's stream track.
func (c *Collector) OperatorMigrated(op, from, to, reason string, tookSec float64) {
	if c == nil {
		return
	}
	c.addInstant("migrated "+op, "stream", to, map[string]interface{}{
		"from": from, "to": to, "reason": reason, "took_sec": tookSec,
	})
}
