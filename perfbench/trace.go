package main

import (
	"encoding/json"
	"os"
	"time"

	"virtualsync/internal/lp"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call: wall-clock start and end since the run began, and
// the process CPU time spent in between. Parent is the enclosing span
// (-1 at the top level). LP carries the solver work done inside the
// span, where the layer reports it; Attrs carries the layer's own
// counters.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	CPU    int64              `json:"cpu_ns"`
	LP     *lp.Stats          `json:"lp,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory for the whole run. A disabled tracer
// records nothing and every method is a no-op, so the untraced path
// pays one branch per call site.
type tracer struct {
	on    bool
	t0    time.Time
	cpuT0 time.Duration // process CPU time when the run began
	spans []span
	open  []int           // stack of open span IDs
	cpu0  []time.Duration // CPU time at each open span's start

	// self is the time spent inside the tracer's own methods and the
	// search observer, measured in place; depth counts nested entries,
	// so that a call made from another tracer call is charged once.
	self  time.Duration
	depth int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now(), cpuT0: cpuNow()} }

// enter and leave bracket the tracer's own work, as in
// defer t.leave(t.enter()).
func (t *tracer) enter() time.Time {
	t.depth++
	return time.Now()
}

func (t *tracer) leave(start time.Time) {
	t.depth--
	if t.depth == 0 {
		t.self += time.Since(start)
	}
}

// overheadPct is the tracer's own time as a share of the process CPU
// time since the run began.
func (t *tracer) overheadPct() float64 {
	run := cpuNow() - t.cpuT0
	if run <= 0 {
		return 0
	}
	return 100 * t.self.Seconds() / run.Seconds()
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span nested in the innermost open one and returns its
// ID (-1 when tracing is off).
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	defer t.leave(t.enter())
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Start: int64(time.Since(t.t0)), End: -1})
	t.open = append(t.open, id)
	t.cpu0 = append(t.cpu0, cpuNow())
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	defer t.leave(t.enter())
	last := len(t.open) - 1
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].CPU = int64(cpuNow() - t.cpu0[last])
	t.open, t.cpu0 = t.open[:last], t.cpu0[:last]
}

// interval records an already finished span under the innermost open
// one; the period-search observer reports probes this way, after the
// fact, from the stopwatch it started at the previous event.
func (t *tracer) interval(name string, from stopwatch, st *lp.Stats, attrs map[string]float64) {
	if !t.on {
		return
	}
	defer t.leave(t.enter())
	c := from.stop()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.parent(), Name: name,
		Start: int64(from.wall.Sub(t.t0)), End: int64(from.wall.Add(c.wall).Sub(t.t0)), CPU: int64(c.cpu),
		LP: st, Attrs: attrs,
	})
}

// set attaches counters and solver work to span id.
func (t *tracer) set(id int, st *lp.Stats, attrs map[string]float64) {
	if id < 0 {
		return
	}
	defer t.leave(t.enter())
	if st != nil {
		c := *st
		t.spans[id].LP = &c
	}
	if attrs != nil {
		if t.spans[id].Attrs == nil {
			t.spans[id].Attrs = map[string]float64{}
		}
		for k, v := range attrs {
			t.spans[id].Attrs[k] += v
		}
	}
}

// cpuMS sums the CPU time of every span with the given name.
func (t *tracer) cpuMS(name string) float64 {
	var d int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			d += t.spans[i].CPU
		}
	}
	return float64(d) / 1e6
}

func (t *tracer) count(name string) int {
	n := 0
	for i := range t.spans {
		if t.spans[i].Name == name {
			n++
		}
	}
	return n
}

// attr sums one counter over the spans with the given name.
func (t *tracer) attr(name, key string) float64 {
	v := 0.0
	for i := range t.spans {
		if t.spans[i].Name == name {
			v += t.spans[i].Attrs[key]
		}
	}
	return v
}

// solver sums the solver work attached to spans whose name is in names.
func (t *tracer) solver(names ...string) lp.Stats {
	var tot lp.Stats
	for i := range t.spans {
		s := &t.spans[i]
		if s.LP == nil {
			continue
		}
		for _, n := range names {
			if s.Name == n {
				tot.Add(*s.LP)
				break
			}
		}
	}
	return tot
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "spans": t.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// statsDelta is cur - prev, field by field.
func statsDelta(cur, prev lp.Stats) lp.Stats {
	return lp.Stats{
		Phase1Pivots: cur.Phase1Pivots - prev.Phase1Pivots,
		Phase2Pivots: cur.Phase2Pivots - prev.Phase2Pivots,
		BoundFlips:   cur.BoundFlips - prev.BoundFlips,
		CrashPivots:  cur.CrashPivots - prev.CrashPivots,
		Nodes:        cur.Nodes - prev.Nodes,
		WarmStarts:   cur.WarmStarts - prev.WarmStarts,
		ColdStarts:   cur.ColdStarts - prev.ColdStarts,
		Refactors:    cur.Refactors - prev.Refactors,
		Repairs:      cur.Repairs - prev.Repairs,
	}
}
