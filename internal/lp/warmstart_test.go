package lp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// timingLP builds a randomized chain-of-difference-constraints LP shaped
// like the emulation model: free arrival variables, boxed padding
// variables with random positive cost, chain rows
// s_i - s_{i-1} + pad_i >= d_i and tight per-node deadlines. The
// deadline slope (6) sits below the mean stage delay, so the optimum
// genuinely buys padding on the deficit stages and the LP pivots.
func timingLP(rng *rand.Rand, n int) (*Model, []VarID) {
	m := NewModel("timing")
	prev := m.AddVar("s0", 0, 0, 0)
	var pads []VarID
	for i := 1; i < n; i++ {
		s := m.AddVar("s", -Inf, Inf, 0)
		pad := m.AddVar("p", 0, 8, 1+rng.Float64())
		pads = append(pads, pad)
		d := 4 + 5*rng.Float64()
		m.MustConstrain("c", []Term{{s, 1}, {prev, -1}, {pad, 1}}, GE, d)
		m.MustConstrain("u", []Term{{s, 1}}, LE, 6*float64(i)+5)
		prev = s
	}
	return m, pads
}

// TestWarmVsColdObjectives cross-checks warm-started solves against cold
// solves on randomized timing-shaped LPs after tightening a few variable
// bounds, the way a branch-and-bound child or a re-probed period does.
func TestWarmVsColdObjectives(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, pads := timingLP(rng, 40)
		cold1, err := m.Solve()
		if err != nil || cold1.Status != Optimal {
			t.Fatalf("seed %d: base solve: %+v %v", seed, cold1, err)
		}
		if cold1.Basis == nil {
			t.Fatalf("seed %d: optimal solve returned no basis", seed)
		}

		// Tighten a few pad upper bounds (still feasible: pads can be 0).
		for k := 0; k < 3; k++ {
			v := pads[rng.Intn(len(pads))]
			lb, ub := m.Bounds(v)
			m.SetBounds(v, lb, ub/2)
		}
		cold2, err := m.SolveOpts(context.Background(), SolveOptions{})
		if err != nil || cold2.Status != Optimal {
			t.Fatalf("seed %d: cold re-solve: %+v %v", seed, cold2, err)
		}
		warm2, err := m.SolveOpts(context.Background(), SolveOptions{Warm: cold1.Basis})
		if err != nil || warm2.Status != Optimal {
			t.Fatalf("seed %d: warm re-solve: %+v %v", seed, warm2, err)
		}
		if warm2.Stats.WarmStarts == 0 {
			t.Fatalf("seed %d: warm seed was not used: %+v", seed, warm2.Stats)
		}
		if math.Abs(warm2.Objective-cold2.Objective) > 1e-6 {
			t.Fatalf("seed %d: warm %.9f vs cold %.9f", seed, warm2.Objective, cold2.Objective)
		}
		if warm2.Stats.Pivots() > cold2.Stats.Pivots() {
			t.Logf("seed %d: warm took more pivots (%d) than cold (%d)",
				seed, warm2.Stats.Pivots(), cold2.Stats.Pivots())
		}
	}
}

// timingILP adds binary case-selection variables coupled to the paddings
// through big-M rows, shaped like the legalization ILP: padding an edge
// beyond a small free allowance requires enabling its delay unit, so the
// relaxation sets the binaries fractional and branch-and-bound has to
// work. Random continuous costs make the optimum unique with probability
// 1, so solutions (not just objectives) must agree across
// configurations.
func timingILP(rng *rand.Rand, n int) (*Model, []VarID) {
	m, pads := timingLP(rng, n)
	var bins []VarID
	for _, pad := range pads {
		b := m.AddBinVar("b", 1+rng.Float64())
		bins = append(bins, b)
		m.MustConstrain("link", []Term{{pad, 1}, {b, -8}}, LE, 0.5+rng.Float64())
	}
	return m, bins
}

// TestBnBIndependentOfGOMAXPROCS asserts that branch-and-bound returns
// a bitwise-identical Solution (values, work counters and basis) under
// GOMAXPROCS 1 and 4 on randomized legalization-shaped ILPs: the search
// depends on the model alone, not on the core count.
func TestBnBIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	solveAt := func(procs int, seed int64) *Solution {
		runtime.GOMAXPROCS(procs)
		m, _ := timingILP(rand.New(rand.NewSource(seed)), 25)
		sol, err := m.Solve()
		if err != nil || sol.Status != Optimal {
			t.Fatalf("seed %d, GOMAXPROCS %d: %+v %v", seed, procs, sol, err)
		}
		return sol
	}
	for seed := int64(1); seed <= 12; seed++ {
		one, four := solveAt(1, seed), solveAt(4, seed)
		if one.Stats != four.Stats {
			t.Fatalf("seed %d: stats differ: %+v vs %+v", seed, one.Stats, four.Stats)
		}
		if one.Stats.Nodes == 0 {
			t.Fatalf("seed %d: no nodes recorded: %+v", seed, one.Stats)
		}
		if math.Float64bits(one.Objective) != math.Float64bits(four.Objective) {
			t.Fatalf("seed %d: objectives differ: %v vs %v", seed, one.Objective, four.Objective)
		}
		for v := range one.Values {
			if math.Float64bits(one.Values[v]) != math.Float64bits(four.Values[v]) {
				t.Fatalf("seed %d: value %d differs: %v vs %v", seed, v, one.Values[v], four.Values[v])
			}
		}
		if !reflect.DeepEqual(one.Basis, four.Basis) {
			t.Fatalf("seed %d: bases differ", seed)
		}
	}
}

// TestBnBNodeCap solves a parity MIP, Σ 2xᵢ = 2k+1 over binaries: no
// integral point exists, every relaxation is feasible, and the tree
// outgrows the node cap. The search must stop at exactly maxNodes with
// IterLimit and an error, and record the cap hit; the refutation pass
// cannot settle the root (its activity range covers the right-hand
// side), so the cap, not the pass, ends the search.
func TestBnBNodeCap(t *testing.T) {
	m := NewModel("parity")
	var terms []Term
	for i := 0; i < 13; i++ {
		terms = append(terms, Term{m.AddBinVar("x", 1), 2})
	}
	m.MustConstrain("odd", terms, EQ, 13)
	sol, err := m.Solve()
	if err == nil {
		t.Fatalf("capped search returned no error: %+v", sol)
	}
	if sol == nil || sol.Status != IterLimit {
		t.Fatalf("status = %+v, want IterLimit", sol)
	}
	if sol.Stats.Nodes != maxNodes || sol.Stats.NodeCapped != 1 {
		t.Fatalf("stats = %+v, want %d nodes and one cap hit", sol.Stats, maxNodes)
	}
	if sol.Stats.Pivots() == 0 {
		t.Fatalf("root relaxation never reached the simplex: %+v", sol.Stats)
	}
	var sum Stats
	sum.Add(sol.Stats)
	sum.Add(sol.Stats)
	if sum.NodeCapped != 2 {
		t.Fatalf("Stats.Add dropped NodeCapped: %+v", sum)
	}
}

// TestBnBWarmStartHitRate checks that branch-and-bound children actually
// reuse their parent's basis: every node after the root should be seeded.
func TestBnBWarmStartHitRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := timingILP(rng, 25)
	sol, err := m.Solve()
	if err != nil || sol.Status != Optimal {
		t.Fatalf("solve: %+v %v", sol, err)
	}
	if sol.Stats.Nodes < 3 {
		t.Fatalf("tree unexpectedly small, warm starts unexercised: %+v", sol.Stats)
	}
	// Every child node carries its parent's basis; only the root (and
	// any node whose seed was incompatible) solves cold.
	if got := sol.Stats.WarmHitRate(); got < 0.5 {
		t.Fatalf("warm-start hit rate %.2f too low: %+v", got, sol.Stats)
	}
}

// TestCrossKernelWarmStart asserts the statuses-only Basis contract: an
// optimal basis carried out of one kernel warm-starts the other with no
// phase-1 pivots in either direction. The LU side additionally seeds by
// direct factorization, so it must not even spend crash pivots.
func TestCrossKernelWarmStart(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, _ := timingLP(rng, 60)
		dense, err := m.SolveOpts(context.Background(), SolveOptions{Kernel: KernelDense})
		if err != nil || dense.Status != Optimal {
			t.Fatalf("seed %d: dense cold: %+v %v", seed, dense, err)
		}
		luCold, err := m.SolveOpts(context.Background(), SolveOptions{Kernel: KernelLU})
		if err != nil || luCold.Status != Optimal {
			t.Fatalf("seed %d: lu cold: %+v %v", seed, luCold, err)
		}

		// dense basis → LU kernel
		luWarm, err := m.SolveOpts(context.Background(),
			SolveOptions{Kernel: KernelLU, Warm: dense.Basis})
		if err != nil || luWarm.Status != Optimal {
			t.Fatalf("seed %d: lu warm from dense: %+v %v", seed, luWarm, err)
		}
		if luWarm.Stats.WarmStarts != 1 {
			t.Fatalf("seed %d: dense basis rejected by lu kernel: %+v", seed, luWarm.Stats)
		}
		if luWarm.Stats.Phase1Pivots != 0 {
			t.Fatalf("seed %d: lu warm start spent %d phase-1 pivots",
				seed, luWarm.Stats.Phase1Pivots)
		}
		if luWarm.Stats.CrashPivots != 0 {
			t.Fatalf("seed %d: lu kernel seeds by factorization, yet spent %d crash pivots",
				seed, luWarm.Stats.CrashPivots)
		}
		if math.Abs(luWarm.Objective-dense.Objective) > 1e-6 {
			t.Fatalf("seed %d: lu warm %.9f vs dense %.9f",
				seed, luWarm.Objective, dense.Objective)
		}

		// LU basis → dense kernel
		denseWarm, err := m.SolveOpts(context.Background(),
			SolveOptions{Kernel: KernelDense, Warm: luCold.Basis})
		if err != nil || denseWarm.Status != Optimal {
			t.Fatalf("seed %d: dense warm from lu: %+v %v", seed, denseWarm, err)
		}
		if denseWarm.Stats.WarmStarts != 1 {
			t.Fatalf("seed %d: lu basis rejected by dense kernel: %+v", seed, denseWarm.Stats)
		}
		if denseWarm.Stats.Phase1Pivots != 0 {
			t.Fatalf("seed %d: dense warm start spent %d phase-1 pivots",
				seed, denseWarm.Stats.Phase1Pivots)
		}
		if math.Abs(denseWarm.Objective-luCold.Objective) > 1e-6 {
			t.Fatalf("seed %d: dense warm %.9f vs lu %.9f",
				seed, denseWarm.Objective, luCold.Objective)
		}
	}
}

// TestCrossKernelWarmStartAfterBoundTightening mirrors the production
// pattern (period re-probe, branch-and-bound child): the basis crosses
// kernels while a few bounds move, and must still start primal-feasible
// or repair cheaply — never diverge.
func TestCrossKernelWarmStartAfterBoundTightening(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, pads := timingLP(rng, 50)
	dense, err := m.SolveOpts(context.Background(), SolveOptions{Kernel: KernelDense})
	if err != nil || dense.Status != Optimal {
		t.Fatalf("dense cold: %+v %v", dense, err)
	}
	for k := 0; k < 3; k++ {
		v := pads[rng.Intn(len(pads))]
		lb, ub := m.Bounds(v)
		m.SetBounds(v, lb, ub/2)
	}
	cold, err := m.SolveOpts(context.Background(), SolveOptions{Kernel: KernelLU})
	if err != nil || cold.Status != Optimal {
		t.Fatalf("lu cold after tighten: %+v %v", cold, err)
	}
	warm, err := m.SolveOpts(context.Background(),
		SolveOptions{Kernel: KernelLU, Warm: dense.Basis})
	if err != nil || warm.Status != Optimal {
		t.Fatalf("lu warm after tighten: %+v %v", warm, err)
	}
	if warm.Stats.WarmStarts != 1 {
		t.Fatalf("warm seed unused: %+v", warm.Stats)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("warm %.9f vs cold %.9f", warm.Objective, cold.Objective)
	}
}

// TestSolveCtxCancellation verifies that a cancelled context interrupts
// the solve with an error instead of running the search to completion.
func TestSolveCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := timingILP(rng, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.SolveOpts(ctx, SolveOptions{}); err == nil {
		t.Fatal("cancelled context did not interrupt Solve")
	}
}
