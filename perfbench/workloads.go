package main

import (
	"fmt"
	"math/rand"
	"time"

	"virtualsync/internal/core"
	"virtualsync/internal/netlist"
)

// Workload circuits and sizes.
var (
	smallCircuits = []string{"s5378", "s9234", "s13207"}
	largeCircuits = []string{"s38584"}
)

const (
	flowSetupReps = 25  // generation repeats per untraced flow run (setup_s is their median)
	ecoEdits      = 6   // single-gate resizes per ECO round
	verifyLanes   = 256 // lanes per verify batch, per pair
	tracedBatches = 8   // verify batches in a traced run
)

// run accumulates one benchmark run: the timed units, the set-up
// samples, quality figures and failure accounting.
type run struct {
	*bench
	seed    int64
	seconds time.Duration

	setups    []clock
	units     []clock
	attempted int
	failed    int
	failures  []string

	nt, na []float64 // per-result period reduction and area change, %
	rise   []float64 // ECO: achieved period over the session's cold period, % above
	lanesN int       // verify: lanes checked in timed batches

	digests []string // "<label> <digest>", in first-seen order
	seen    map[string]string
}

func newRun(b *bench, seed int64, seconds time.Duration) *run {
	return &run{bench: b, seed: seed, seconds: seconds, seen: map[string]string{}}
}

// fail records a failed operation.
func (r *run) fail(what string, err error) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
}

// record keeps the digest of a labelled result; a later round that
// produces a different digest for the same label is a failure, since
// the optimizer is deterministic for a fixed input.
func (r *run) record(label, d string) error {
	if prev, ok := r.seen[label]; ok {
		if prev != d {
			return fmt.Errorf("result differs between rounds: %s then %s", prev, d)
		}
		return nil
	}
	r.seen[label] = d
	r.digests = append(r.digests, label+" "+d)
	return nil
}

// stimSeed derives the stimulus seed of check k in round i from the
// run's seed, so every round verifies with fresh vectors.
func (r *run) stimSeed(round, k int) int64 {
	return r.seed*1_000_003 + int64(round)*1009 + int64(k) + 1
}

// more reports whether another round fits in the measuring time. A
// traced run makes a fixed number of rounds instead, so that its
// per-layer counts repeat exactly.
func (r *run) more(start time.Time, rounds, traced int) bool {
	if r.tr.on {
		return rounds < traced
	}
	return rounds < 1 || time.Since(start) < r.seconds
}

// ---- flow-small, flow-s38584 ----

// flowRun times the whole vsync job per circuit — retiming&sizing,
// period search, 48-cycle x 64-lane equivalence — one pass over the
// circuits being one timed unit.
func (r *run) flowRun(names []string) error {
	reps := flowSetupReps
	if r.tr.on {
		reps = 1
	}
	var circuits []*netlist.Circuit
	for i := 0; i < reps; i++ {
		sw := startClock()
		circuits = circuits[:0]
		for _, n := range names {
			c, err := r.generate(n)
			if err != nil {
				return err
			}
			circuits = append(circuits, c)
		}
		r.setups = append(r.setups, sw.stop())
	}
	start := time.Now()
	for round := 0; r.more(start, round, 1); round++ {
		r.units = append(r.units, r.flowPass(names, circuits, round))
	}
	return nil
}

func (r *run) flowPass(names []string, circuits []*netlist.Circuit, round int) clock {
	var pass clock
	for i, c := range circuits {
		d, err := r.flowOne(names[i], c, r.stimSeed(round, i))
		pass = pass.add(d)
		if err != nil {
			r.fail(names[i], err)
		}
	}
	return pass
}

// flowOne is one operation: a circuit through the flow. The timed part
// is what vsync -bench does; the checks after it are not timed.
func (r *run) flowOne(name string, c *netlist.Circuit, seed int64) (clock, error) {
	r.attempted++
	id := r.tr.begin("flow")
	sw := startClock()
	base, err := r.baseline(c)
	if err != nil {
		r.tr.end(id)
		return sw.stop(), err
	}
	res, err := r.optimize(base)
	if err != nil {
		r.tr.end(id)
		return sw.stop(), err
	}
	pc, err := r.lanes(base, res.Circuit, res.BaselinePeriod, res.Period, flowCycles, flowLanes, seed)
	took := sw.stop()
	r.tr.end(id)
	if err != nil {
		return took, err
	}
	if err := r.confirm(pc); err != nil {
		return took, err
	}
	d, err := r.checkResult(res)
	if err != nil {
		return took, err
	}
	if err := r.record(name, d); err != nil {
		return took, err
	}
	if err := r.probeLayers(base); err != nil {
		return took, err
	}
	r.nt = append(r.nt, res.PeriodReductionPct())
	r.na = append(r.na, res.AreaDeltaPct())
	return took, nil
}

// ---- eco ----

// ecoRun repeats rounds of: a cold session on the retimed s5378, as
// vsync -eco builds it (set-up), then a fixed script of single-gate
// upsizes on distinct gates through Session.Reoptimize, each edit one
// timed unit.
func (r *run) ecoRun() error {
	start := time.Now()
	for round := 0; r.more(start, round, 1); round++ {
		edits, err := r.ecoRound(round)
		if err != nil {
			return err
		}
		r.units = append(r.units, edits...)
	}
	return nil
}

// ecoRound builds one session and applies the script; it returns the
// time of each edit.
func (r *run) ecoRound(round int) ([]clock, error) {
	sw := startClock()
	c, err := r.generate("s5378")
	if err != nil {
		return nil, err
	}
	base, err := r.baseline(c)
	if err != nil {
		return nil, err
	}
	sess, err := r.newSession(base)
	if err != nil {
		return nil, fmt.Errorf("eco session: %w", err)
	}
	r.setups = append(r.setups, sw.stop())
	cold := sess.Result
	d, err := r.checkResult(cold)
	if err == nil {
		err = r.record("s5378-session", d)
	}
	if err != nil {
		return nil, fmt.Errorf("eco session: %w", err)
	}
	script, err := ecoScript(sess, r.variant)
	if err != nil {
		return nil, err
	}
	var edits []clock
	for i, e := range script {
		r.attempted++
		sw := startClock()
		res, _, err := r.reoptimize(sess, []netlist.Edit{e})
		edits = append(edits, sw.stop())
		if err == nil {
			err = r.checkEdit(sess, res, fmt.Sprintf("s5378-eco%d", i+1), r.stimSeed(round, i))
		}
		if err != nil {
			r.fail(fmt.Sprintf("eco edit %d (%s)", i+1, e.Node), err)
			continue
		}
		r.nt = append(r.nt, res.PeriodReductionPct())
		r.na = append(r.na, res.AreaDeltaPct())
		r.rise = append(r.rise, 100*(res.Period-cold.Period)/cold.Period)
	}
	return edits, nil
}

// checkEdit verifies one ECO result as vsync -eco does (the edited
// circuit against its re-optimized form) and validates its plan.
func (r *run) checkEdit(sess *core.Session, res *core.Result, label string, seed int64) error {
	d, err := r.checkResult(res)
	if err != nil {
		return err
	}
	if err := r.record(label, d); err != nil {
		return err
	}
	pc, err := r.lanes(sess.Circuit, res.Circuit, res.BaselinePeriod, res.Period, flowCycles, flowLanes, seed)
	if err != nil {
		return err
	}
	if err := r.confirm(pc); err != nil {
		return err
	}
	return r.probeLayers(sess.Circuit)
}

// ecoScript picks the edit script: upsizes of distinct gates that have
// a faster drive, in an order drawn from the variant, so variant 0 is
// one fixed script.
func ecoScript(sess *core.Session, variant int64) ([]netlist.Edit, error) {
	var cands []*netlist.Node
	for _, g := range sess.Circuit.Gates() {
		if _, _, _, ok := sess.Lib.FasterDrive(g); ok {
			cands = append(cands, g)
		}
	}
	if len(cands) < ecoEdits {
		return nil, fmt.Errorf("eco: only %d resizable gates", len(cands))
	}
	rng := rand.New(rand.NewSource(variant + 1))
	var edits []netlist.Edit
	for _, k := range rng.Perm(len(cands))[:ecoEdits] {
		g := cands[k]
		d, _, _, _ := sess.Lib.FasterDrive(g)
		edits = append(edits, netlist.Edit{Op: netlist.EditResize, Node: g.Name, Drive: d})
	}
	return edits, nil
}

// ---- verify ----

// verifyRun builds optimized pairs for the small circuits (set-up),
// then times batches: per pair, a 256-lane bit-parallel check over
// fresh stimulus, the lane-0 event-engine oracle, and event-engine
// confirmation of any flagged lane.
func (r *run) verifyRun() error {
	sw := startClock()
	var pairs []*pairCheck
	for _, n := range smallCircuits {
		c, err := r.generate(n)
		if err != nil {
			return err
		}
		base, err := r.baseline(c)
		if err != nil {
			return fmt.Errorf("%s baseline: %w", n, err)
		}
		res, err := r.optimize(base)
		if err != nil {
			return fmt.Errorf("%s optimize: %w", n, err)
		}
		d, err := r.checkResult(res)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		if err := r.record(n, d); err != nil {
			return err
		}
		if err := r.probeLayers(base); err != nil {
			return err
		}
		r.nt = append(r.nt, res.PeriodReductionPct())
		r.na = append(r.na, res.AreaDeltaPct())
		pairs = append(pairs, &pairCheck{a: base, b: res.Circuit, ta: res.BaselinePeriod, tb: res.Period})
	}
	r.setups = append(r.setups, sw.stop())

	start := time.Now()
	for batch := 0; r.more(start, batch, tracedBatches); batch++ {
		r.units = append(r.units, r.verifyBatch(pairs, batch))
		r.lanesN += verifyLanes * len(pairs)
	}
	return nil
}

func (r *run) verifyBatch(pairs []*pairCheck, batch int) clock {
	sw := startClock()
	for i, p := range pairs {
		r.attempted++
		if err := r.verifyOne(p, r.stimSeed(batch, i)); err != nil {
			r.fail(fmt.Sprintf("verify %s batch %d", smallCircuits[i], batch), err)
		}
	}
	return sw.stop()
}

func (r *run) verifyOne(p *pairCheck, seed int64) error {
	pc, err := r.lanes(p.a, p.b, p.ta, p.tb, flowCycles, verifyLanes, seed)
	if err != nil {
		return err
	}
	return r.confirm(pc)
}
