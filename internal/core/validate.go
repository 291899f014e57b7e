package core

import (
	"fmt"
	"math"

	"virtualsync/internal/celllib"
)

// Violation is one failed check from the wave-timing validator.
type Violation struct {
	Check  string  // which rule failed
	Edge   int     // region edge index, or -1
	Gate   int     // region gate index, or -1
	Amount float64 // how far out of bounds
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (edge %d, gate %d, by %.3f): %s", v.Check, v.Edge, v.Gate, v.Amount, v.Msg)
}

const valTol = 1e-6

// waveState holds propagated late/early arrivals for validation.
type waveState struct {
	late, early   []float64 // per gate output
	wLate, wEarly []float64 // per edge, before any unit
	oLate, oEarly []float64 // per edge, after unit (as seen by consumer)
}

// ValidateParams overrides the quantities the wave-timing validator
// checks a plan against. The zero value reproduces Validate exactly; a
// Monte Carlo caller (internal/variation) supplies sampled delays with
// unity guard bands to test one process-variation outcome, or a shifted
// period to probe the realized circuit's operating window.
type ValidateParams struct {
	// T replaces the plan's clock period when > 0.
	T float64
	// GateDelay/ChainDelay, when non-nil, replace the plan's realized
	// per-gate and per-edge delays (same indexing as the Plan fields).
	GateDelay  []float64
	ChainDelay []float64
	// Ru/Rl replace the plan's guard bands when both are > 0. Use 1/1 to
	// validate one concrete delay assignment without margins.
	Ru, Rl float64
	// FF/Latch, when non-nil, replace the library's sequential timing.
	FF, Latch *celllib.SeqTiming
	// TransparentLatches switches latch delay units from the optimizer's
	// corner-interval model to concrete-sample physics: a signal arriving
	// before the latch opens is blocked and launched at open + Tcq, one
	// arriving while the latch is transparent passes through with Tdq.
	// The interval model instead pins the early output at the open edge
	// and requires even the fast corner (Rl-scaled) to arrive before it —
	// a constraint on the delay *interval*, meaningless for one concrete
	// delay assignment. Monte Carlo sampling sets this together with
	// unity guard bands.
	TransparentLatches bool
}

// valEnv is a resolved ValidateParams: the effective quantities one
// validation pass runs with.
type valEnv struct {
	T, ru, rl   float64
	gd, cd      []float64
	ff, lt      celllib.SeqTiming
	tstable     float64
	duty        float64
	transparent bool
}

func (p *Plan) env(params ValidateParams) valEnv {
	e := valEnv{
		T: p.T, ru: p.Opts.Ru, rl: p.Opts.Rl,
		gd: p.GateDelay, cd: p.ChainDelay,
		ff: p.R.Lib.FF, lt: p.R.Lib.Latch,
		duty: p.Opts.Duty,
	}
	if params.T > 0 {
		e.T = params.T
	}
	if params.GateDelay != nil {
		e.gd = params.GateDelay
	}
	if params.ChainDelay != nil {
		e.cd = params.ChainDelay
	}
	if params.Ru > 0 && params.Rl > 0 {
		e.ru, e.rl = params.Ru, params.Rl
	}
	if params.FF != nil {
		e.ff = *params.FF
	}
	if params.Latch != nil {
		e.lt = *params.Latch
	}
	e.transparent = params.TransparentLatches
	e.tstable = p.Opts.TStableFrac * e.T
	return e
}

// Validate checks a realized plan against the VirtualSync timing rules
// using fixed delays (p.GateDelay, p.ChainDelay) and the model's ru/rl
// guard bands: boundary setup/hold (paper eq. 1-2), delay-unit windows
// (eq. 7-8, 14), wave non-interference (eq. 17) and signal ordering. It
// is independent of the LP solver and is the final gate on every
// optimizer output.
func (p *Plan) Validate() []Violation {
	return p.ValidateWith(ValidateParams{})
}

// ValidateWith is Validate with selected quantities overridden.
func (p *Plan) ValidateWith(params ValidateParams) []Violation {
	env := p.env(params)
	st, vs := p.propagate(env)
	if st == nil {
		return vs
	}
	return append(vs, p.check(st, env)...)
}

// propagate computes arrival times to fixpoint. Sequential delay units
// with flip-flop behaviour emit constants, which breaks every legal cycle;
// a cycle without one fails to converge and is reported.
//
// The iteration is a frontier Jacobi: pass k recomputes only the edges
// whose source gate changed bitwise in pass k-1, then only the gates
// with an in-edge whose output changed bitwise in pass k (pass 0 does
// everything). An item left out would recompute to the same bits from
// the same inputs, so every array, the pass count and the convergence
// verdict equal those of a full sweep over all edges and gates.
func (p *Plan) propagate(env valEnv) (*waveState, []Violation) {
	r := p.R
	nG, nE := len(r.Gates), len(r.Edges)
	idx := r.edgeIndex()
	opts := p.Opts
	opts.Ru, opts.Rl = env.ru, env.rl
	T := env.T

	buf := make([]float64, 2*nG+4*nE)
	take := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	st := &waveState{
		late: take(nG), early: take(nG),
		wLate: take(nE), wEarly: take(nE), oLate: take(nE), oEarly: take(nE),
	}
	for gi := 0; gi < nG; gi++ {
		st.late[gi] = math.Inf(-1)
		st.early[gi] = math.Inf(1)
	}

	// Frontier lists: edges holds the edges to recompute, compacted in
	// place to those whose output changed; gates likewise for gates.
	// queued marks the gates already on this pass's list.
	fr := make([]int32, nE+nG)
	edges, gates := fr[:nE:nE], fr[nE:nE:nE+nG]
	queued := make([]uint64, (nG+63)/64)
	for ei := range edges {
		edges[ei] = int32(ei)
	}
	for gi := 0; gi < nG; gi++ {
		if len(idx.faninOf(gi)) > 0 {
			gates = append(gates, int32(gi))
		}
	}
	// A NaN never compares equal, so a full sweep counts an item holding
	// one as changed on every pass; nans counts such items.
	nans := 0

	maxIter := nG + nE + 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		out := 0
		for _, e32 := range edges {
			ei := int(e32)
			e := r.Edges[ei]
			var upL, upE float64
			if e.From.Kind == RefGate {
				upL, upE = st.late[e.From.Idx], st.early[e.From.Idx]
			} else {
				upL, upE = r.sourceTimes(e.From.Idx, opts)
			}
			shift := -float64(e.Lambda) * T
			wL := upL + shift + env.cd[ei]*opts.Ru
			wE := upE + shift + env.cd[ei]*opts.Rl
			var oL, oE float64
			u := p.Unit[ei]
			phi := u.PhaseFrac * T
			n := float64(u.N)
			switch u.Kind {
			case UnitNone, UnitBuffer:
				oL, oE = wL, wE
			case UnitFF:
				oL = (n+1)*T + phi + env.ff.Tcq*opts.Ru
				oE = (n+1)*T + phi + env.ff.Tcq*opts.Rl
			case UnitLatch:
				open := n*T + phi + opts.Duty*T
				oL = math.Max(open+env.lt.Tcq*opts.Ru, wL+env.lt.Tdq*opts.Ru)
				if env.transparent && wE > open {
					oE = wE + env.lt.Tdq*opts.Rl
				} else {
					oE = open + env.lt.Tcq*opts.Rl
				}
			}
			if wL != st.wLate[ei] || wE != st.wEarly[ei] || oL != st.oLate[ei] || oE != st.oEarly[ei] {
				// -inf/+inf churn does not count as progress.
				if !sameOrBothInf(wL, st.wLate[ei]) || !sameOrBothInf(wE, st.wEarly[ei]) ||
					!sameOrBothInf(oL, st.oLate[ei]) || !sameOrBothInf(oE, st.oEarly[ei]) {
					changed = true
				}
			}
			nans += anyNaN(wL, wE, oL, oE) - anyNaN(st.wLate[ei], st.wEarly[ei], st.oLate[ei], st.oEarly[ei])
			if !sameBits(oL, st.oLate[ei]) || !sameBits(oE, st.oEarly[ei]) {
				edges[out] = e32
				out++
			}
			st.wLate[ei], st.wEarly[ei] = wL, wE
			st.oLate[ei], st.oEarly[ei] = oL, oE
		}
		if iter > 0 {
			gates = gates[:0]
			for _, e32 := range edges[:out] {
				if to := r.Edges[e32].To; to.Kind == RefGate && queued[to.Idx/64]&(1<<(to.Idx%64)) == 0 {
					queued[to.Idx/64] |= 1 << (to.Idx % 64)
					gates = append(gates, int32(to.Idx))
				}
			}
		}
		out = 0
		for _, g32 := range gates {
			gi := int(g32)
			queued[gi/64] &^= 1 << (gi % 64)
			lateIn := math.Inf(-1)
			earlyIn := math.Inf(1)
			for _, ei := range idx.faninOf(gi) {
				if st.oLate[ei] > lateIn {
					lateIn = st.oLate[ei]
				}
				if st.oEarly[ei] < earlyIn {
					earlyIn = st.oEarly[ei]
				}
			}
			nl := lateIn + env.gd[gi]*opts.Ru
			ne := earlyIn + env.gd[gi]*opts.Rl
			if !sameOrBothInf(nl, st.late[gi]) || !sameOrBothInf(ne, st.early[gi]) {
				changed = true
			}
			nans += anyNaN(nl, ne, 0, 0) - anyNaN(st.late[gi], st.early[gi], 0, 0)
			if !sameBits(nl, st.late[gi]) || !sameBits(ne, st.early[gi]) {
				gates[out] = g32
				out++
			}
			st.late[gi], st.early[gi] = nl, ne
		}
		if !changed && nans == 0 {
			return st, nil
		}
		edges = edges[:0]
		for _, g32 := range gates[:out] {
			edges = append(edges, idx.fanoutOf(int(g32))...)
		}
	}
	return nil, []Violation{{
		Check: "convergence", Edge: -1, Gate: -1,
		Msg: "arrival times did not converge: a feedback structure lacks a flip-flop delay unit",
	}}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// anyNaN reports 1 when any argument is NaN, else 0.
func anyNaN(a, b, c, d float64) int {
	if a != a || b != b || c != c || d != d {
		return 1
	}
	return 0
}

func sameOrBothInf(a, b float64) bool {
	if math.IsInf(a, -1) && math.IsInf(b, -1) {
		return true
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) < 1e-12
}

// check audits every constraint against the propagated arrivals.
func (p *Plan) check(st *waveState, env valEnv) []Violation {
	r := p.R
	opts := p.Opts
	opts.Ru, opts.Rl = env.ru, env.rl
	T := env.T
	tstable := env.tstable
	var vs []Violation
	add := func(check string, edge, gate int, amount float64, format string, args ...interface{}) {
		vs = append(vs, Violation{check, edge, gate, amount, fmt.Sprintf(format, args...)})
	}

	for gi := range r.Gates {
		l, e := st.late[gi], st.early[gi]
		if math.IsInf(l, -1) || math.IsInf(e, 1) {
			add("reachability", -1, gi, 0, "gate %q has undetermined arrival", r.Work.Node(r.Gates[gi]).Name)
			continue
		}
		if e > l+valTol {
			add("ordering", -1, gi, e-l, "early arrival after late arrival")
		}
		if l-e > T-tstable+valTol {
			add("non-interference", -1, gi, l-e-(T-tstable), "wave spread exceeds T - tstable")
		}
	}

	for ei, e := range r.Edges {
		wL, wE := st.wLate[ei], st.wEarly[ei]
		if math.IsInf(wL, -1) || math.IsInf(wE, 1) {
			add("reachability", ei, -1, 0, "edge has undetermined arrival")
			continue
		}
		u := p.Unit[ei]
		phi := u.PhaseFrac * T
		n := float64(u.N)
		switch u.Kind {
		case UnitFF:
			lo := n*T + phi + env.ff.Th*opts.Ru
			hi := (n+1)*T + phi - env.ff.Tsu*opts.Ru
			if wE < lo-valTol {
				add("ff-window-lo", ei, -1, lo-wE, "early arrival %g before window start %g", wE, lo)
			}
			if wL > hi+valTol {
				add("ff-window-hi", ei, -1, wL-hi, "late arrival %g after window end %g", wL, hi)
			}
		case UnitLatch:
			lo := n*T + phi + env.lt.Th*opts.Ru
			hi := (n+1)*T + phi - env.lt.Tsu*opts.Ru
			open := n*T + phi + opts.Duty*T
			if wE < lo-valTol {
				add("latch-window-lo", ei, -1, lo-wE, "early arrival %g before window start %g", wE, lo)
			}
			if wL > hi+valTol {
				add("latch-window-hi", ei, -1, wL-hi, "late arrival %g after window end %g", wL, hi)
			}
			if !env.transparent && wE > open+valTol {
				add("latch-transparent-early", ei, -1, wE-open,
					"fast signal arrives at %g after the latch opens at %g", wE, open)
			}
		}
		if wL-wE > T-tstable+valTol {
			add("non-interference", ei, -1, wL-wE-(T-tstable), "wave spread at unit input")
		}

		if e.To.Kind == RefSink {
			tsu, th := 0.0, 0.0
			if r.Sinks[e.To.Idx].IsFF {
				tsu, th = env.ff.Tsu, env.ff.Th
			}
			oL, oE := st.oLate[ei], st.oEarly[ei]
			if oL+tsu*opts.Ru > T+valTol {
				add("boundary-setup", ei, -1, oL+tsu*opts.Ru-T,
					"sink %q arrival %g + tsu > T=%g", r.Work.Node(r.Sinks[e.To.Idx].Node).Name, oL, T)
			}
			if oE < th*opts.Ru-valTol {
				add("boundary-hold", ei, -1, th*opts.Ru-oE,
					"sink %q early arrival %g < th", r.Work.Node(r.Sinks[e.To.Idx].Node).Name, oE)
			}
		}
	}
	return vs
}

// SinkArrivals exposes the validator's propagated boundary arrivals for
// experiment reporting: converted late/early arrival per sink name. ok is
// false when propagation fails.
func SinkArrivals(p *Plan) (ok bool, late, early map[string]float64) {
	st, vs := p.propagate(p.env(ValidateParams{}))
	if st == nil || len(vs) > 0 {
		return false, nil, nil
	}
	late = map[string]float64{}
	early = map[string]float64{}
	for ei, e := range p.R.Edges {
		if e.To.Kind != RefSink {
			continue
		}
		name := p.R.Work.Node(p.R.Sinks[e.To.Idx].Node).Name
		late[name] = st.oLate[ei]
		early[name] = st.oEarly[ei]
	}
	return true, late, early
}
