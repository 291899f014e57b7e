package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"virtualsync"
	"virtualsync/internal/celllib"
	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/lp"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sim"
	"virtualsync/internal/sizing"
	"virtualsync/internal/sta"
)

// The flow's fixed settings, as vsync uses them by default.
const (
	stepFrac   = 0.005 // period-search step
	flowCycles = 48    // equivalence-simulation cycles
	flowLanes  = 64    // bit-parallel lanes per flow check
	warmup     = 8     // cycles ignored at the start of a comparison
)

// bench wraps every call the benchmark makes into the program. With
// tracing on, each call is recorded as a span.
type bench struct {
	ctx     context.Context
	lib     *celllib.Library
	opts    core.Options
	tr      *tracer
	variant int64
}

func newBench(ctx context.Context, tr *tracer, variant int64) *bench {
	return &bench{ctx: ctx, lib: celllib.Default(), opts: core.DefaultOptions(), tr: tr, variant: variant}
}

// generate builds one suite circuit; the variant offsets its generator
// seed, and variant 0 is the paper-suite circuit.
func (b *bench) generate(name string) (*netlist.Circuit, error) {
	spec, ok := gen.SpecByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown circuit %q", name)
	}
	spec.Seed += b.variant
	id := b.tr.begin("gen.generate")
	defer b.tr.end(id)
	return gen.Generate(spec)
}

// baseline runs the retiming&sizing baseline. Traced, it makes the
// façade's calls itself (size, retime, size) so that each is timed.
func (b *bench) baseline(c *netlist.Circuit) (*netlist.Circuit, error) {
	if !b.tr.on {
		res, err := virtualsync.RetimeAndSize(c, b.lib)
		if err != nil {
			return nil, err
		}
		return res.Circuit, nil
	}
	work := c.Clone()
	id := b.tr.begin("sizing.size")
	_, err := sizing.Size(work, b.lib)
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	id = b.tr.begin("retime.retime")
	rt, _, err := retime.Retime(work, b.lib)
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("retiming: %w", err)
	}
	id = b.tr.begin("sizing.size")
	_, err = sizing.Size(rt, b.lib)
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("post-retiming sizing: %w", err)
	}
	return rt, nil
}

// searchObserver turns the period search's progress events into spans:
// one core.probe per probed period (the interval since the previous
// event; the first also covers region extraction) and one core.replace
// from the replace event to the search's return, closed by finish.
type searchObserver struct {
	tr       *tracer
	last     stopwatch // started at the previous event
	prev     lp.Stats
	replaced bool
}

func (b *bench) observer() *searchObserver {
	return &searchObserver{tr: b.tr, last: startClock()}
}

// progress is the callback handed to the period search: nil when
// tracing is off, so that the untraced search runs as cmd/vsync runs it.
func (o *searchObserver) progress() core.ProgressFunc {
	if !o.tr.on {
		return nil
	}
	return o.observe
}

func (o *searchObserver) observe(ev core.ProgressEvent) {
	defer o.tr.leave(o.tr.enter())
	d := statsDelta(ev.Solver, o.prev)
	o.prev = ev.Solver
	if ev.Stage == "replace" {
		o.replaced = true
		o.last = startClock()
		return
	}
	feasible := 0.0
	if ev.Feasible {
		feasible = 1
	}
	o.tr.interval("core.probe", o.last, &d, map[string]float64{"feasible": feasible})
	o.last = startClock()
}

// finish closes the replace span and tags span id, the search's own,
// with the number of chains replaced.
func (o *searchObserver) finish(id int, res *core.Result) {
	if !o.tr.on || res == nil {
		return
	}
	defer o.tr.leave(o.tr.enter())
	if o.replaced {
		d := statsDelta(res.Solver, o.prev)
		o.tr.interval("core.replace", o.last, &d, nil)
	}
	o.tr.set(id, nil, map[string]float64{"chains_replaced": float64(res.BufferReplaced)})
}

// optimize runs the period search on a baseline circuit.
func (b *bench) optimize(base *netlist.Circuit) (*core.Result, error) {
	id := b.tr.begin("core.optimize")
	defer b.tr.end(id)
	o := b.observer()
	res, err := virtualsync.OptimizeObserved(b.ctx, base, b.lib, b.opts, stepFrac, o.progress())
	o.finish(id, res)
	return res, err
}

// newSession runs the cold period search as vsync -eco does, keeping
// the session for incremental edits.
func (b *bench) newSession(base *netlist.Circuit) (*core.Session, error) {
	id := b.tr.begin("core.optimize")
	defer b.tr.end(id)
	o := b.observer()
	s, err := virtualsync.NewSession(b.ctx, base, b.lib, b.opts, stepFrac, o.progress())
	if s != nil {
		o.finish(id, s.Result)
	}
	return s, err
}

// reoptimize applies one edit list through the session.
func (b *bench) reoptimize(s *core.Session, edits []netlist.Edit) (*core.Result, *core.ECOStats, error) {
	id := b.tr.begin("eco.reoptimize")
	res, st, err := s.Reoptimize(b.ctx, edits)
	b.tr.end(id)
	if err == nil {
		spliced := 0.0
		if st.Spliced {
			spliced = 1
		}
		fallback := 0.0
		if st.Fallback {
			fallback = 1
		}
		recomputed := 0.0
		if st.STA != nil {
			recomputed = float64(st.STA.ArrivalRecomputed)
		}
		b.tr.set(id, &res.Solver, map[string]float64{
			"cone_nodes":         float64(st.ConeNodes),
			"arrival_recomputed": recomputed,
			"recovery_steps":     float64(st.RecoverySteps),
			"fallback":           fallback,
			"spliced":            spliced,
			"chains_replaced":    float64(res.BufferReplaced),
		})
	}
	return res, st, err
}

// probeLayers times the stages the optimizer runs internally as
// separate calls on the same input: a full timing analysis and a
// region extraction. Traced runs only; the result is discarded.
func (b *bench) probeLayers(c *netlist.Circuit) error {
	if !b.tr.on {
		return nil
	}
	id := b.tr.begin("sta.analyze")
	_, err := sta.Analyze(c, b.lib)
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("sta: %w", err)
	}
	id = b.tr.begin("core.extract")
	_, err = core.Extract(c, b.lib, core.ExtractOptions{SelectFrac: b.opts.SelectFrac})
	b.tr.end(id)
	if err != nil {
		return fmt.Errorf("extract: %w", err)
	}
	return nil
}

// checkResult re-validates a result's final plan against the wave-timing
// rules and re-applies it, requiring the same netlist the optimizer
// returned. It returns the result's digest.
func (b *bench) checkResult(res *core.Result) (string, error) {
	id := b.tr.begin("core.validate")
	vs := res.Plan.Validate()
	b.tr.end(id)
	if len(vs) > 0 {
		return "", fmt.Errorf("final plan invalid: %d violations, first: %v", len(vs), vs[0])
	}
	id = b.tr.begin("core.apply")
	c, err := res.Plan.Apply()
	b.tr.end(id)
	if err != nil {
		return "", fmt.Errorf("apply: %w", err)
	}
	d, err := digest(res.Circuit, res.Period, res.Area)
	if err != nil {
		return "", err
	}
	if d2, err := digest(c, res.Period, res.Area); err != nil || d2 != d {
		return "", fmt.Errorf("re-applied plan differs from the returned netlist")
	}
	return d, nil
}

// pairCheck is one bit-parallel differential check of an original
// circuit a against its optimized form b.
type pairCheck struct {
	a, b   *netlist.Circuit
	ta, tb float64
	stims  [][][]bool
	report *sim.LaneReport
}

// lanes runs the bit-parallel check over fresh per-lane stimulus.
func (b *bench) lanes(a, o *netlist.Circuit, ta, tb float64, cycles, lanes int, seed int64) (*pairCheck, error) {
	pc := &pairCheck{a: a, b: o, ta: ta, tb: tb, stims: sim.LaneStimulus(a, cycles, 0, seed, lanes)}
	id := b.tr.begin("sim.lanes")
	lr, err := sim.VerifyEquivalenceLanes(a, o, b.lib, ta, tb, warmup, pc.stims)
	b.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("lanes: %w", err)
	}
	pc.report = lr
	attrs := map[string]float64{"flagged": float64(lr.FlaggedLanes())}
	attrs["engine_a_"+lr.EngineA] = 1
	attrs["engine_b_"+lr.EngineB] = 1
	b.tr.set(id, nil, attrs)
	return pc, nil
}

// confirm runs the scalar event engine — the oracle — on lane 0 and on
// every lane the bit-parallel check flagged. Only a mismatch the event
// engine reproduces is a failure; a flag it does not reproduce is
// counted in the lane report and nothing more.
func (b *bench) confirm(pc *pairCheck) error {
	for l := range pc.stims {
		if l != 0 && !sim.MaskHasLane(pc.report.Mask, l) {
			continue
		}
		id := b.tr.begin("sim.event")
		ms, err := sim.VerifyEquivalenceStim(pc.a, pc.b, b.lib, pc.ta, pc.tb, warmup, pc.stims[l])
		b.tr.end(id)
		if err != nil {
			return fmt.Errorf("event engine: %w", err)
		}
		if len(ms) > 0 {
			return fmt.Errorf("event engine confirms lane %d: %d mismatches (first: %v)", l, len(ms), ms[0])
		}
	}
	return nil
}

// digest hashes a netlist's text form together with its period and
// area, so two runs can be compared by one short string.
func digest(c *netlist.Circuit, period, area float64) (string, error) {
	var buf bytes.Buffer
	if err := netlist.Write(&buf, c); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "T=%.6f area=%.6f\n", period, area)
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}
