package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sizing"
)

// propagateJacobi is the validator's original full-sweep Jacobi
// fixpoint, kept as the oracle for the frontier version in validate.go:
// every pass recomputes every edge from the previous pass's gate
// arrivals, then every gate by scanning all edges for its fanins. It is
// the original code verbatim apart from the working-array allocation.
//
// propagateJacobi computes arrival times to fixpoint. Sequential delay units
// with flip-flop behaviour emit constants, which breaks every legal cycle;
// a cycle without one fails to converge and is reported.
func (p *Plan) propagateJacobi(env valEnv) (*waveState, []Violation) {
	r := p.R
	nG, nE := len(r.Gates), len(r.Edges)
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

	fromTimes := func(e Edge) (float64, float64) {
		switch e.From.Kind {
		case RefGate:
			return st.late[e.From.Idx], st.early[e.From.Idx]
		default:
			return r.sourceTimes(e.From.Idx, opts)
		}
	}

	maxIter := nG + nE + 8
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for ei, e := range r.Edges {
			upL, upE := fromTimes(e)
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
			st.wLate[ei], st.wEarly[ei] = wL, wE
			st.oLate[ei], st.oEarly[ei] = oL, oE
		}
		for gi, gid := range r.Gates {
			_ = gid
			lateIn := math.Inf(-1)
			earlyIn := math.Inf(1)
			found := false
			for ei, e := range r.Edges {
				if e.To.Kind != RefGate || e.To.Idx != gi {
					continue
				}
				found = true
				if st.oLate[ei] > lateIn {
					lateIn = st.oLate[ei]
				}
				if st.oEarly[ei] < earlyIn {
					earlyIn = st.oEarly[ei]
				}
			}
			if !found {
				continue
			}
			nl := lateIn + env.gd[gi]*opts.Ru
			ne := earlyIn + env.gd[gi]*opts.Rl
			if !sameOrBothInf(nl, st.late[gi]) || !sameOrBothInf(ne, st.early[gi]) {
				changed = true
			}
			st.late[gi], st.early[gi] = nl, ne
		}
		if !changed {
			return st, nil
		}
	}
	return nil, []Violation{{
		Check: "convergence", Edge: -1, Gate: -1,
		Msg: "arrival times did not converge: a feedback structure lacks a flip-flop delay unit",
	}}
}

// checkPropagate runs the frontier propagate and the full-sweep oracle
// on the same environment and requires bitwise-equal arrays and the same
// convergence verdict, which it returns.
func checkPropagate(tb testing.TB, what string, p *Plan, params ValidateParams) (converged bool) {
	tb.Helper()
	env := p.env(params)
	got, gotVs := p.propagate(env)
	want, wantVs := p.propagateJacobi(env)
	sameWave(tb, what, got, gotVs, want, wantVs)
	return want != nil
}

// sameWave requires bitwise-equal propagation results.
func sameWave(tb testing.TB, what string, got *waveState, gotVs []Violation, want *waveState, wantVs []Violation) {
	tb.Helper()
	if (got == nil) != (want == nil) || len(gotVs) != len(wantVs) {
		tb.Fatalf("%s: verdict differs: converged %v/%v, violations %v vs %v",
			what, got != nil, want != nil, gotVs, wantVs)
	}
	if got == nil {
		return
	}
	arrays := []struct {
		name      string
		got, want []float64
	}{
		{"late", got.late, want.late}, {"early", got.early, want.early},
		{"wLate", got.wLate, want.wLate}, {"wEarly", got.wEarly, want.wEarly},
		{"oLate", got.oLate, want.oLate}, {"oEarly", got.oEarly, want.oEarly},
	}
	for _, a := range arrays {
		if len(a.got) != len(a.want) {
			tb.Fatalf("%s: %s length %d vs %d", what, a.name, len(a.got), len(a.want))
		}
		for i := range a.got {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				tb.Fatalf("%s: %s[%d] = %v, oracle %v", what, a.name, i, a.got[i], a.want[i])
			}
		}
	}
}

// realizedAt builds a realized plan for r at period T, or nil when T is
// infeasible.
func realizedAt(tb testing.TB, r *Region, T float64, prev *Plan) *Plan {
	tb.Helper()
	p, err := optimizeRegion(context.Background(), r, T, DefaultOptions(), prev)
	if err != nil {
		tb.Fatal(err)
	}
	if p == nil || p.realize(context.Background()) != nil {
		return nil
	}
	return p
}

// clonePlan copies the per-edge and per-gate arrays a perturbation
// touches, so variants of one plan do not share state.
func clonePlan(p *Plan) *Plan {
	q := *p
	q.Unit = append([]Placement(nil), p.Unit...)
	q.ChainDelay = append([]float64(nil), p.ChainDelay...)
	q.GateDelay = append([]float64(nil), p.GateDelay...)
	return &q
}

// perturb applies one random variant to a copy of p: unit placements
// (flip-flops and latches at random windows and phases, loop edges
// included), scaled delays, and validation overrides.
func perturb(p *Plan, rng *rand.Rand) (*Plan, ValidateParams) {
	q := clonePlan(p)
	nE := len(q.Unit)
	for k := rng.Intn(4); k > 0 && nE > 0; k-- {
		ei := rng.Intn(nE)
		switch rng.Intn(4) {
		case 0:
			q.Unit[ei] = Placement{}
		case 1:
			q.Unit[ei] = Placement{Kind: UnitFF, N: rng.Intn(4) - 1, PhaseFrac: 0.25 * float64(rng.Intn(4))}
		default:
			q.Unit[ei] = Placement{Kind: UnitLatch, N: rng.Intn(4) - 1, PhaseFrac: 0.25 * float64(rng.Intn(4))}
		}
	}
	var params ValidateParams
	if rng.Intn(2) == 0 {
		params.T = q.T * (0.5 + rng.Float64())
	}
	if rng.Intn(2) == 0 {
		params.GateDelay = make([]float64, len(q.GateDelay))
		for i, d := range q.GateDelay {
			params.GateDelay[i] = d * (0.8 + 0.4*rng.Float64())
		}
		params.ChainDelay = make([]float64, len(q.ChainDelay))
		for i, d := range q.ChainDelay {
			params.ChainDelay[i] = d * (0.8 + 0.4*rng.Float64())
		}
	}
	if rng.Intn(2) == 0 {
		params.Ru, params.Rl = 1, 1
		params.TransparentLatches = rng.Intn(2) == 0
	}
	if rng.Intn(4) == 0 {
		ff := q.R.Lib.FF
		ff.Tcq *= 1.5
		lt := q.R.Lib.Latch
		lt.Tdq *= 0.5
		params.FF, params.Latch = &ff, &lt
	}
	return q, params
}

// TestPropagateMatchesJacobi holds the frontier propagate to the
// full-sweep Jacobi oracle bit for bit.
func TestPropagateMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	t.Run("suite", func(t *testing.T) {
		names := []string{"s5378", "systemcdes"}
		if testing.Short() {
			names = names[:1]
		}
		lib := celllib.Default()
		for _, name := range names {
			spec, _ := gen.SpecByName(name)
			c, err := gen.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := Extract(c, lib, ExtractOptions{SelectFrac: DefaultOptions().SelectFrac})
			if err != nil {
				t.Fatal(err)
			}
			T0 := r.Baseline.MinPeriod * DefaultOptions().Ru
			var prev *Plan
			feasible := 0
			for _, frac := range []float64{0, 0.04, 0.08, 0.12} {
				p := realizedAt(t, r, T0*(1-frac), prev)
				if p == nil {
					continue
				}
				prev = p
				feasible++
				checkPropagate(t, name, p, ValidateParams{})
				for k := 0; k < 8; k++ {
					q, params := perturb(p, rng)
					checkPropagate(t, name+" perturbed", q, params)
				}
			}
			if feasible == 0 {
				t.Fatalf("%s: no feasible probe period", name)
			}
		}
	})

	t.Run("random-units", func(t *testing.T) {
		verdicts := map[bool]int{}
		for _, p := range smallPlans(t) {
			for k := 0; k < 200; k++ {
				q, params := perturb(p, rng)
				verdicts[checkPropagate(t, "random units", q, params)]++
			}
		}
		// A latch or no unit on the loop circuit's feedback edge leaves
		// the loop uncut, so some placements must fail to converge.
		if verdicts[true] == 0 || verdicts[false] == 0 {
			t.Fatalf("verdicts not mixed: %v", verdicts)
		}
	})

	t.Run("transparent-latches", func(t *testing.T) {
		for _, p := range smallPlans(t) {
			for ei := range p.Unit {
				q := clonePlan(p)
				q.Unit[ei] = Placement{Kind: UnitLatch}
				for _, scale := range []float64{1, 2.5, 5} {
					gd := make([]float64, len(q.GateDelay))
					for i, d := range q.GateDelay {
						gd[i] = d * scale
					}
					params := ValidateParams{GateDelay: gd, Ru: 1, Rl: 1, TransparentLatches: true}
					checkPropagate(t, "transparent", q, params)
					params.TransparentLatches = false
					checkPropagate(t, "interval", q, params)
				}
			}
		}
	})

	t.Run("nan-delay", func(t *testing.T) {
		// A NaN arrival never settles in the full sweep; the frontier
		// version must not converge either.
		p := smallPlans(t)[0]
		cd := append([]float64(nil), p.ChainDelay...)
		cd[len(cd)-1] = math.NaN()
		params := ValidateParams{ChainDelay: cd}
		if st, _ := p.propagate(p.env(params)); st != nil {
			t.Fatal("NaN chain delay converged")
		}
		checkPropagate(t, "nan", p, params)
	})

	t.Run("uncut-loop", func(t *testing.T) {
		p := smallPlans(t)[1] // loopCircuit
		q := clonePlan(p)
		for ei := range q.Unit {
			q.Unit[ei] = Placement{}
		}
		if st, _ := q.propagate(q.env(ValidateParams{})); st != nil {
			t.Fatal("uncut loop converged")
		}
		checkPropagate(t, "uncut loop", q, ValidateParams{})
	})
}

var (
	smallPlansOnce sync.Once
	smallPlansVal  []*Plan
	smallPlansErr  string
)

// smallPlans returns realized plans of the hand-built test circuits: the
// unbalanced pipeline, the register feedback loop, and the multi-window
// pipeline. Callers must not modify them.
func smallPlans(tb testing.TB) []*Plan {
	tb.Helper()
	smallPlansOnce.Do(func() {
		lib := paperLib(tb)
		for _, c := range []struct {
			name  string
			build func(testing.TB) *netlist.Circuit
			T     func(*Region) float64
		}{
			{"wavepipe", wavePipe, func(*Region) float64 { return 10 }},
			{"loop", loopCircuit, func(r *Region) float64 { return r.Baseline.MinPeriod * 1.1 }},
			{"deeppipe", deepPipe, func(*Region) float64 { return 15 }},
		} {
			r, err := Extract(c.build(tb), lib, ExtractOptions{SelectFrac: 0.95})
			if err != nil {
				smallPlansErr = c.name + ": " + err.Error()
				return
			}
			p := realizedAt(tb, r, c.T(r), nil)
			if p == nil {
				smallPlansErr = c.name + ": infeasible"
				return
			}
			smallPlansVal = append(smallPlansVal, p)
		}
	})
	if smallPlansErr != "" {
		tb.Fatal(smallPlansErr)
	}
	return smallPlansVal
}

// FuzzPropagateAgainstJacobi drives the frontier propagate and the
// full-sweep oracle with fuzzer-chosen unit placements, delay scales and
// validation overrides on the hand-built plans; two propagations run
// concurrently on a region whose edge index is not built yet.
func FuzzPropagateAgainstJacobi(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, which uint8) {
		plans := smallPlans(t)
		p := plans[int(which)%len(plans)]
		rng := rand.New(rand.NewSource(seed))
		q, params := perturb(p, rng)
		// A fresh copy of the region, so the two concurrent propagations
		// below race to build its edge index.
		q.R = spliceRegion(p.R, p.R.Work, p.R.Lib, p.R.Baseline)
		env := q.env(params)
		want, wantVs := q.propagateJacobi(env)
		var got [2]*waveState
		var gotVs [2][]Violation
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], gotVs[i] = q.propagate(env)
			}(i)
		}
		wg.Wait()
		for i := range got {
			sameWave(t, "fuzz", got[i], gotVs[i], want, wantVs)
		}
	})
}

// benchRegion extracts the region of a paper-suite circuit prepared the
// way vsync prepares it (sizing, retiming, sizing). A non-nil tweak edits
// the generator spec first.
func benchRegion(b testing.TB, name string, tweak func(*gen.Spec)) *Region {
	b.Helper()
	lib := celllib.Default()
	spec, _ := gen.SpecByName(name)
	if tweak != nil {
		tweak(&spec)
	}
	c, err := gen.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sizing.Size(c, lib); err != nil {
		b.Fatal(err)
	}
	rt, _, err := retime.Retime(c, lib)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sizing.Size(rt, lib); err != nil {
		b.Fatal(err)
	}
	r, err := Extract(rt, lib, ExtractOptions{SelectFrac: DefaultOptions().SelectFrac})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkPropagate times one wave propagation with the frontier
// propagate and with the full-sweep oracle on two plans: s38584 realized
// at its baseline period, and a unit-free plan at slowest gate drives on
// s38584 with loop-free critical stages nine gates wide and fifteen deep
// — a region of 509 edges, whose per-edge arrays fill the 4 KiB
// allocation size class.
func BenchmarkPropagate(b *testing.B) {
	r := benchRegion(b, "s38584", nil)
	realized := realizedAt(b, r, r.Baseline.MinPeriod*DefaultOptions().Ru, nil)
	if realized == nil {
		b.Fatal("s38584 infeasible at its baseline period")
	}
	r = benchRegion(b, "s38584", func(s *gen.Spec) {
		s.StageWidth, s.Stage1Depth, s.Stage2Depth, s.Loop = 9, 15, 15, false
	})
	wide := &Plan{
		R: r, T: r.Baseline.MinPeriod, Opts: DefaultOptions(),
		Unit:       make([]Placement, len(r.Edges)),
		ChainDelay: make([]float64, len(r.Edges)),
		GateDelay:  make([]float64, len(r.Gates)),
	}
	for gi := range r.Gates {
		_, wide.GateDelay[gi], _ = r.GateDelayRange(gi)
	}
	for _, c := range []struct {
		name string
		p    *Plan
	}{{"s38584", realized}, {"s38584-wide", wide}} {
		env := c.p.env(ValidateParams{})
		for _, impl := range []struct {
			name string
			run  func(valEnv) (*waveState, []Violation)
		}{{"frontier", c.p.propagate}, {"jacobi", c.p.propagateJacobi}} {
			b.Run(c.name+"/impl="+impl.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if st, _ := impl.run(env); st == nil {
						b.Fatal("did not converge")
					}
				}
				b.ReportMetric(float64(len(c.p.R.Edges)), "edges")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
				b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
			})
		}
	}
}
