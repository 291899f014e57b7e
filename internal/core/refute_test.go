package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"virtualsync/internal/lp"
)

// isRepairSpec reports whether spec is one of the discretization repair
// LPs (realize's chain rounding, tryUnitAt's buffer replacement): gate
// delays frozen, every edge's unit fixed.
func isRepairSpec(spec *modelSpec) bool {
	if spec.gateDelay == nil {
		return false
	}
	for _, m := range spec.modes {
		if m != ModeFixed {
			return false
		}
	}
	return true
}

// repairFracs are the period cuts, as fractions of the guard-banded
// baseline period, at which runRepairs realizes each circuit: the flow's
// probes around its final period (s5378 reaches 14.5%, s38584 1%), the
// last of them past it.
var repairFracs = map[string][]float64{
	"s5378":  {0, 0.04, 0.08, 0.12},
	"s38584": {0, 0.005, 0.01, 0.04},
}

// runRepairs drives r through the flow's repair LPs: realize at the
// circuit's repairFracs periods, then buffer replacement on the last
// realized plan.
func runRepairs(tb testing.TB, name string, r *Region) {
	tb.Helper()
	T0 := r.Baseline.MinPeriod * DefaultOptions().Ru
	var prev *Plan
	for _, frac := range repairFracs[name] {
		if p := realizedAt(tb, r, T0*(1-frac), prev); p != nil {
			prev = p
		}
	}
	if prev == nil {
		tb.Fatal("no feasible probe period")
	}
	prev.replaceBuffers(context.Background())
}

// sameSolution requires bitwise-equal solve outcomes.
func sameSolution(got, want *lp.Solution) bool {
	if got.Status != want.Status || len(got.Values) != len(want.Values) ||
		math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return false
	}
	for i := range got.Values {
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			return false
		}
	}
	return true
}

// TestRepairRefutationSound captures the repair LPs of s5378 and s38584
// as the flow solves them and holds every one the bound-propagation pass
// refuted to the simplex alone: the same model solved with SkipRefute
// must come out the same (for a refuted LP: Infeasible). It also
// requires the pass to fire, so the implication is not vacuous.
func TestRepairRefutationSound(t *testing.T) {
	names := []string{"s5378", "s38584"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		r := benchRegion(t, name, nil)
		repairs, refuted := 0, 0
		r.solveHook = func(spec *modelSpec, m *lp.Model, sol *lp.Solution) {
			if !isRepairSpec(spec) || sol == nil {
				return
			}
			repairs++
			if sol.Stats.Refuted == 0 {
				return
			}
			refuted++
			oracle, err := m.SolveOpts(context.Background(),
				lp.SolveOptions{Warm: spec.warm, Kernel: spec.opts.LPKernel, SkipRefute: true})
			if err != nil && oracle.Status != lp.IterLimit {
				t.Fatalf("%s: oracle solve: %v", name, err)
			}
			if !sameSolution(sol, oracle) {
				t.Errorf("%s: refuted repair LP (%d rows) is %v to the simplex alone",
					name, m.NumConstraints(), oracle.Status)
			}
		}
		runRepairs(t, name, r)
		if refuted == 0 {
			t.Fatalf("%s: none of %d repair LPs refuted", name, repairs)
		}
		t.Logf("%s: %d of %d repair LPs refuted", name, refuted, repairs)
	}
}

// BenchmarkRefute solves one infeasible s38584 repair LP, captured from
// buffer replacement, with the refutation pass (impl=refute) and with
// the simplex alone (impl=simplex).
func BenchmarkRefute(b *testing.B) {
	r := benchRegion(b, "s38584", nil)
	var captured *lp.Model
	r.solveHook = func(spec *modelSpec, m *lp.Model, sol *lp.Solution) {
		if captured == nil && isRepairSpec(spec) && spec.quantMargin > 0 &&
			sol != nil && sol.Stats.Refuted > 0 {
			captured = m
		}
	}
	runRepairs(b, "s38584", r)
	if captured == nil {
		b.Fatal("no refuted buffer-replacement LP captured")
	}
	for _, impl := range []struct {
		name string
		skip bool
	}{{"refute", false}, {"simplex", true}} {
		b.Run("impl="+impl.name, func(b *testing.B) {
			b.ReportAllocs()
			var st lp.Stats
			for i := 0; i < b.N; i++ {
				sol, err := captured.SolveOpts(context.Background(), lp.SolveOptions{SkipRefute: impl.skip})
				if err != nil || sol.Status != lp.Infeasible {
					b.Fatalf("status %v, err %v", sol.Status, err)
				}
				st = sol.Stats
			}
			b.ReportMetric(float64(st.Pivots()), "pivots/op")
			b.ReportMetric(float64(captured.NumConstraints()), "rows")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
		})
	}
}
