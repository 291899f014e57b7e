package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// checkRefutation runs the refutation pass over (lb, ub) and, when it
// refutes, requires the simplex alone to find the LP infeasible on both
// kernels. It also requires the pass to leave lb and ub untouched. It
// reports whether the pass refuted and whether the dense simplex found
// the LP infeasible.
func checkRefutation(t testing.TB, p *problem, lb, ub []float64) (refuted, infeasible bool) {
	t.Helper()
	lb0 := append([]float64(nil), lb...)
	ub0 := append([]float64(nil), ub...)
	refuted = p.refute(lb, ub)
	for j := range lb {
		if math.Float64bits(lb[j]) != math.Float64bits(lb0[j]) ||
			math.Float64bits(ub[j]) != math.Float64bits(ub0[j]) {
			t.Fatalf("refute changed the bounds of column %d", j)
		}
	}
	for _, kind := range []Kernel{KernelDense, KernelLU} {
		res, _ := simplexLP(nil, p, lb, ub, nil, kind)
		if kind == KernelDense {
			infeasible = res.status == Infeasible
		}
		if refuted && res.status != Infeasible && res.status != IterLimit {
			t.Fatalf("refuted an LP the %v simplex finds %v (obj %g)", kind, res.status, res.obj)
		}
	}
	return refuted, infeasible
}

// nodeBounds derives branch-and-bound child bounds from a relaxation:
// like a branch on a fractional variable, each override caps a column
// at or below its relaxed value (down) or lifts it at or above (up),
// here by a random whole-number distance so that deeper cuts empty the
// region. Children whose overrides cross a column's own bounds are
// skipped, as SolveOpts skips them.
func nodeBounds(p *problem, vals []float64, rng *rand.Rand) (lbs, ubs [][]float64) {
	for child := 0; child < 6; child++ {
		lb, ub := p.defaultBounds()
		ok := true
		for k := 1 + rng.Intn(3); k > 0 && ok; k-- {
			j := rng.Intn(p.nv)
			v := vals[j]
			step := float64(rng.Intn(4))
			if rng.Intn(2) == 0 {
				ub[j] = math.Min(ub[j], math.Floor(v)-step)
			} else {
				lb[j] = math.Max(lb[j], math.Ceil(v)+step)
			}
			ok = lb[j] <= ub[j]+eps
		}
		if ok {
			lbs, ubs = append(lbs, lb), append(ubs, ub)
		}
	}
	return lbs, ubs
}

// TestRefuteOnlyInfeasible holds the refutation pass to the simplex:
// on the differential suite's random and timing-shaped LPs, and on
// branch-and-bound child bounds derived from their relaxations, every
// LP the pass refutes must be infeasible to the simplex alone. The pass
// must also fire on a good share of the infeasible ones.
func TestRefuteOnlyInfeasible(t *testing.T) {
	var models []*Model
	for seed := 0; seed < 300; seed++ {
		models = append(models, randomLP(rand.New(rand.NewSource(int64(1000+seed)))))
	}
	for _, n := range []int{10, 60, 200} {
		m, _ := timingLP(rand.New(rand.NewSource(int64(77+n))), n)
		models = append(models, m)
	}
	rng := rand.New(rand.NewSource(5))
	refuted, infeasible := 0, 0
	tally := func(r, inf bool) {
		if r {
			refuted++
		}
		if inf {
			infeasible++
		}
	}
	for _, m := range models {
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		lb, ub := p.defaultBounds()
		tally(checkRefutation(t, p, lb, ub))
		root, _ := simplexLP(nil, p, lb, ub, nil, KernelDense)
		if root.status != Optimal {
			continue
		}
		lbs, ubs := nodeBounds(p, root.vals, rng)
		for i := range lbs {
			tally(checkRefutation(t, p, lbs[i], ubs[i]))
		}
	}
	t.Logf("refuted %d of %d infeasible LPs", refuted, infeasible)
	if refuted == 0 || 4*refuted < infeasible {
		t.Fatalf("refuted only %d of %d infeasible LPs", refuted, infeasible)
	}
}

// TestRefuteCounts checks the solve-level plumbing: a refuted LP reports
// Infeasible with Stats.Refuted set and no simplex work, and SkipRefute
// sends the same model to the simplex.
func TestRefuteCounts(t *testing.T) {
	m := NewModel("chain")
	x := m.AddVar("x", 0, 10, 1)
	y := m.AddVar("y", 0, 10, 1)
	z := m.AddVar("z", 0, 3, 1)
	m.MustConstrain("xy", []Term{{y, 1}, {x, -1}}, GE, 2)
	m.MustConstrain("yz", []Term{{z, 1}, {y, -1}}, GE, 2)
	m.MustConstrain("x", []Term{{x, 1}, {z, 1}}, GE, 1)
	sol, err := m.Solve()
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	if want := (Stats{Refuted: 1}); sol.Stats != want {
		t.Fatalf("stats %+v, want %+v", sol.Stats, want)
	}
	sol, err = m.SolveOpts(context.Background(), SolveOptions{SkipRefute: true})
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("simplex alone: %v %v", sol.Status, err)
	}
	if sol.Stats.Refuted != 0 || sol.Stats.ColdStarts != 1 {
		t.Fatalf("simplex alone: stats %+v", sol.Stats)
	}
	var sum Stats
	sum.Add(Stats{Refuted: 2})
	sum.Add(Stats{Refuted: 3, ColdStarts: 1})
	if sum.Refuted != 5 || sum.WarmHitRate() != 0 {
		t.Fatalf("Add: %+v", sum)
	}
}

// FuzzRefuteAgainstSimplex is the native fuzz target for the pass: any
// byte string becomes a small LP with small-integer data (ties and
// degeneracy are common), solved over its own bounds and over child
// bounds drawn from the same bytes. Whenever the pass refutes, the
// simplex alone must find the LP infeasible.
func FuzzRefuteAgainstSimplex(f *testing.F) {
	f.Add([]byte("virtualsync-refute"))
	f.Add([]byte{3, 2, 0, 10, 20, 3, 1, 200, 100, 0, 255, 7, 5, 9, 1, 2, 3, 4})
	f.Add([]byte{4, 3, 0, 0, 40, 1, 8, 24, 1, 0, 16, 1, 3, 4, 252, 0, 12, 3, 4, 8, 248, 1, 6})
	rng := rand.New(rand.NewSource(43))
	long := make([]byte, 96)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeFuzzLP(data)
		if m == nil {
			t.Skip()
		}
		p, err := m.compile()
		if err != nil {
			t.Skip() // empty bound range — a modelling error, not a solve
		}
		lb, ub := p.defaultBounds()
		checkRefutation(t, p, lb, ub)
		// Child bounds: byte pairs from the front pick a column and an
		// override, the way branch-and-bound tightens a node.
		for i := 0; i+1 < len(data) && i < 8; i += 2 {
			j := int(data[i]) % p.nv
			v := float64(int8(data[i+1])) / 4
			if data[i]&0x80 != 0 {
				lb[j] = math.Max(lb[j], v)
			} else {
				ub[j] = math.Min(ub[j], v)
			}
			if lb[j] > ub[j]+eps {
				return
			}
			checkRefutation(t, p, lb, ub)
		}
	})
}
