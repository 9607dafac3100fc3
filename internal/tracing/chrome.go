package tracing

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"sort"
)

// Chrome trace_event export. Track layout:
//
//	pid 1            driver — tid 1 jobs, tid 2 stages, tid 3 scheduler
//	pid 2+i          node i in registration order — tid s+1 for core slot s,
//	                 tid 999 for the fault/executor-status track
//
// Events carry ts/dur in microseconds of virtual time. A span still open
// at export (an aborted run's job and stages, a permanent crash) ends at
// the trace's horizon with "open": true in its args, so it cannot be read
// as one that closed there. Output bytes are deterministic: events are
// stably sorted by (ts, emit sequence) and serialized with encoding/json,
// which orders object keys.

const (
	driverPid    = 1
	tidJobs      = 1
	tidStages    = 2
	tidScheduler = 3
	tidStream    = 998
	tidFaults    = 999
)

type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   float64                `json:"ts"`
	Dur  *float64               `json:"dur,omitempty"`
	S    string                 `json:"s,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// keyed pairs an event with its deterministic sort key.
type keyed struct {
	ev  chromeEvent
	seq uint64
	sub int // orders events derived from the same source record
}

func usec(t float64) float64 { return t * 1e6 }

func durPtr(start, end float64) *float64 {
	d := usec(end - start)
	if d < 0 {
		d = 0
	}
	return &d
}

// nodePid returns the pid for a node name, falling back to the driver pid
// for nodes that were never registered (defensive; should not happen).
func (c *Collector) nodePid(name string) int {
	if i, ok := c.nodeIdx[name]; ok {
		return 2 + i
	}
	return driverPid
}

var errExportDisabled = errors.New("tracing: collector disabled; nothing to export")

// WriteChromeTrace serializes everything collected so far as Chrome
// trace_event JSON (the {"traceEvents": [...]} object form).
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	if c == nil {
		return errExportDisabled
	}

	var meta []chromeEvent
	metaName := func(pid int, name string) {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]interface{}{"name": name},
		})
	}
	metaThread := func(pid, tid int, name string) {
		meta = append(meta, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]interface{}{"name": name},
		})
	}
	metaName(driverPid, "driver")
	metaThread(driverPid, tidJobs, "jobs")
	metaThread(driverPid, tidStages, "stages")
	metaThread(driverPid, tidScheduler, "scheduler")
	for i, n := range c.nodes {
		pid := 2 + i
		metaName(pid, n.name)
		slots := c.maxSlots[n.name]
		if slots < n.cores {
			slots = n.cores
		}
		for s := 0; s < slots; s++ {
			metaThread(pid, s+1, fmt.Sprintf("slot %d", s))
		}
		metaThread(pid, tidStream, "stream")
		metaThread(pid, tidFaults, "faults")
	}

	var evs []keyed

	for _, sp := range c.spans {
		end, args := sp.end, sp.args
		if end < 0 {
			end = c.maxTime
			args = maps.Clone(sp.args)
			if args == nil {
				args = map[string]interface{}{}
			}
			args["open"] = true
		}
		pid, tid := driverPid, tidJobs
		switch sp.cat {
		case "stage":
			tid = tidStages
		case "fault":
			pid, tid = c.nodePid(sp.node), tidFaults
		case "stream":
			pid, tid = c.nodePid(sp.node), tidStream
		}
		evs = append(evs, keyed{seq: sp.seq, ev: chromeEvent{
			Name: sp.name, Cat: sp.cat, Ph: "X",
			Ts: usec(sp.start), Dur: durPtr(sp.start, end),
			Pid: pid, Tid: tid, Args: args,
		}})
	}

	for _, in := range c.instants {
		pid, tid := driverPid, tidScheduler
		if in.node != "" {
			pid, tid = c.nodePid(in.node), tidFaults
			if in.cat == "stream" {
				tid = tidStream
			}
		}
		evs = append(evs, keyed{seq: in.seq, ev: chromeEvent{
			Name: in.name, Cat: in.cat, Ph: "i", S: "t",
			Ts: usec(in.time), Pid: pid, Tid: tid, Args: in.args,
		}})
	}

	for _, a := range c.attempts {
		end := a.End
		if end == 0 {
			end = c.maxTime
		}
		pid, tid := c.nodePid(a.Node), a.slot+1
		name := fmt.Sprintf("task %d", a.TaskID)
		if a.Speculative {
			name += " (spec)"
		}
		args := map[string]interface{}{
			"stage":    a.StageID,
			"job":      a.JobID,
			"index":    a.Index,
			"locality": a.Locality,
			"outcome":  a.Outcome,
		}
		if a.QueuedAt >= 0 {
			args["queued_wait_s"] = a.Launch - a.QueuedAt
		}
		evs = append(evs, keyed{seq: a.seq, ev: chromeEvent{
			Name: name, Cat: "task", Ph: "X",
			Ts: usec(a.Launch), Dur: durPtr(a.Launch, end),
			Pid: pid, Tid: tid, Args: args,
		}})
		for j, p := range a.phases {
			pend := end
			if j+1 < len(a.phases) {
				pend = a.phases[j+1].start
			}
			evs = append(evs, keyed{seq: a.seq, sub: j + 1, ev: chromeEvent{
				Name: p.name, Cat: "phase", Ph: "X",
				Ts: usec(p.start), Dur: durPtr(p.start, pend),
				Pid: pid, Tid: tid,
			}})
		}
	}

	for _, d := range c.decisions {
		rej := map[string]interface{}{}
		for _, cand := range d.Candidates {
			if cand.Rejection != "" {
				rej[fmt.Sprintf("task %d", cand.TaskID)] = cand.Rejection
			}
		}
		args := map[string]interface{}{
			"node":       d.Node,
			"heuristic":  d.Heuristic,
			"locality":   d.WinnerLocality,
			"candidates": len(d.Candidates),
		}
		if d.Queue != "" {
			args["queue"] = d.Queue
		}
		if d.App != "" {
			args["app"] = d.App
		}
		if d.Pool != "" {
			args["pool"] = d.Pool
		}
		if d.Speculative {
			args["speculative"] = true
		}
		if len(rej) > 0 {
			args["rejected"] = rej
		}
		evs = append(evs, keyed{seq: d.seq, ev: chromeEvent{
			Name: fmt.Sprintf("%s: task %d → %s", d.Scheduler, d.Winner, d.Node),
			Cat:  "decision", Ph: "i", S: "t",
			Ts: usec(d.Time), Pid: driverPid, Tid: tidScheduler, Args: args,
		}})
	}

	sort.SliceStable(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.ev.Ts != b.ev.Ts {
			return a.ev.Ts < b.ev.Ts
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.sub < b.sub
	})

	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(meta)+len(evs))}
	out.TraceEvents = append(out.TraceEvents, meta...)
	for _, k := range evs {
		out.TraceEvents = append(out.TraceEvents, k.ev)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateChromeTrace checks that data parses as trace_event JSON in the
// object form and that every event carries the fields its phase requires.
func ValidateChromeTrace(data []byte) error {
	var raw struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("trace JSON: %w", err)
	}
	if len(raw.TraceEvents) == 0 {
		return fmt.Errorf("trace JSON: no traceEvents")
	}
	for i, ev := range raw.TraceEvents {
		name, ok := ev["name"].(string)
		if !ok || name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			return fmt.Errorf("event %d (%s): missing ph", i, name)
		}
		if _, ok := ev["pid"].(float64); !ok {
			return fmt.Errorf("event %d (%s): missing pid", i, name)
		}
		if _, ok := ev["tid"].(float64); !ok {
			return fmt.Errorf("event %d (%s): missing tid", i, name)
		}
		switch ph {
		case "M":
			// metadata carries no timestamp requirement
		case "X":
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("event %d (%s): complete event missing ts", i, name)
			}
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				return fmt.Errorf("event %d (%s): complete event missing dur", i, name)
			}
		case "i":
			if _, ok := ev["ts"].(float64); !ok {
				return fmt.Errorf("event %d (%s): instant missing ts", i, name)
			}
			if s, ok := ev["s"].(string); !ok || s == "" {
				return fmt.Errorf("event %d (%s): instant missing scope", i, name)
			}
		default:
			return fmt.Errorf("event %d (%s): unexpected phase %q", i, name, ph)
		}
	}
	return nil
}
