package lp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// defaultNode bounds the branch-and-bound tree. The reproduction's
	// ILPs carry at most a few dozen binaries; trees beyond a few
	// thousand nodes indicate a hopeless big-M relaxation, where the
	// incumbent (if any) is already as good as exhaustive search gets
	// within reasonable time.
	defaultNode = 1500
	// defaultBudget bounds branch-and-bound wall time for the same
	// reason; the timing models solved here finish in well under a
	// second when the relaxation is informative.
	defaultBudget = 5 * time.Second
)

// SolveOptions tunes a Solve call. The zero value gives the defaults.
type SolveOptions struct {
	// MaxNodes bounds the branch-and-bound tree (0: default 1500).
	MaxNodes int
	// Workers is the number of concurrent node solvers (0: GOMAXPROCS).
	// Results are deterministic for any worker count: nodes are explored
	// in synchronized waves with a fixed selection and apply order.
	Workers int
	// Warm seeds the root relaxation (and, transitively, the whole tree)
	// from a prior solve's Basis. Incompatible bases are ignored.
	Warm *Basis
	// TimeBudget bounds wall time (0: default 5 s). The context deadline,
	// when earlier, wins.
	TimeBudget time.Duration
	// Kernel selects the basis-inverse representation (see Kernel).
	// The zero value KernelAuto picks by problem size: dense below
	// luAutoRows constraint rows, sparse LU at or above. KernelDense
	// forces the historical dense B⁻¹ (the differential oracle);
	// KernelLU forces the sparse factorized kernel.
	Kernel Kernel
	// SkipRefute sends every relaxation to the simplex, bypassing the
	// bound-propagation pass that proves some LPs infeasible first
	// (refute.go). The pass only answers Infeasible, and only where the
	// simplex would too, so this changes the work, not the result; it
	// is the oracle setting that tests hold the pass to.
	SkipRefute bool
}

// Solve solves the model. Pure LPs go straight to the simplex; models
// with integer variables are solved exactly by warm-started LP-based
// branch-and-bound with best-objective pruning.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveOpts(context.Background(), SolveOptions{})
}

// SolveCtx is Solve with cancellation: branch-and-bound stops between
// waves and the simplex between iterations when ctx expires.
func (m *Model) SolveCtx(ctx context.Context) (*Solution, error) {
	return m.SolveOpts(ctx, SolveOptions{})
}

// SolveWithLimit is Solve with an explicit branch-and-bound node budget.
func (m *Model) SolveWithLimit(maxNodes int) (*Solution, error) {
	return m.SolveOpts(context.Background(), SolveOptions{MaxNodes: maxNodes})
}

// override tightens one variable's bounds relative to the parent node.
type override struct {
	v      VarID
	lb, ub float64
}

// bnode is one open branch-and-bound node.
type bnode struct {
	seq       int // creation order; ties in bound break toward older
	depth     int
	hasBound  bool
	bound     float64 // parent relaxation objective (valid dual bound)
	overrides []override
	seed      *Basis // parent's optimal basis
}

// incumbentBox is the atomically-shared best integral solution.
type incumbentBox struct {
	obj float64
	sol *lpResult
}

// waveRes is a worker's output for one node.
type waveRes struct {
	pruned   bool // dropped against the wave-start incumbent snapshot
	infeasNd bool // bound overrides crossed (empty domain)
	res      *lpResult
	err      error
}

// SolveOpts solves the model with explicit options; see SolveOptions.
//
// Parallel determinism: open nodes are kept in a frontier sorted by
// (dual bound best-first, creation order), each wave takes the first
// Workers nodes, solves them concurrently, and applies the results in
// frontier order. Workers prune against the incumbent as of the start of
// the wave; since the incumbent only improves, any node pruned against
// the snapshot would also be pruned at apply time, so the snapshot never
// changes the outcome — it only saves work.
func (m *Model) SolveOpts(ctx context.Context, o SolveOptions) (*Solution, error) {
	p, err := m.compile()
	if err != nil {
		return nil, err
	}
	relax := solveLP
	if o.SkipRefute {
		relax = simplexLP
	}
	if len(p.intVars) == 0 {
		lb, ub := p.defaultBounds()
		res, lerr := relax(ctx, p, lb, ub, o.Warm, o.Kernel)
		if lerr == errCanceled {
			return nil, ctx.Err()
		}
		return res.toSolution(), lerr
	}

	maxNodes := o.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultNode
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	budget := o.TimeBudget
	if budget <= 0 {
		budget = defaultBudget * budgetScale
	}
	deadline := time.Now().Add(budget)

	better := func(a, b float64) bool { // is a better than b?
		if m.sense == Minimize {
			return a < b-1e-9
		}
		return a > b+1e-9
	}

	var inc atomic.Pointer[incumbentBox]
	var total Stats
	total.Nodes = 0
	frontier := []*bnode{{seq: 0, seed: o.Warm}}
	seq := 1
	nodes := 0

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if nodes >= maxNodes || time.Now().After(deadline) {
			if box := inc.Load(); box != nil {
				// Best found so far; callers treat as heuristic.
				return finishIncumbent(box.sol, p, total), nil
			}
			return &Solution{Status: IterLimit, Stats: total},
				fmt.Errorf("lp: branch-and-bound limit (%d nodes)", nodes)
		}

		// Deterministic best-node selection: best dual bound first,
		// creation order breaking ties (and ordering unbounded roots).
		sort.Slice(frontier, func(a, b int) bool {
			na, nb := frontier[a], frontier[b]
			if na.hasBound != nb.hasBound {
				return !na.hasBound // bound-free (root) nodes first
			}
			if na.hasBound && na.bound != nb.bound {
				return better(na.bound, nb.bound)
			}
			return na.seq < nb.seq
		})
		k := workers
		if k > len(frontier) {
			k = len(frontier)
		}
		if rem := maxNodes - nodes; k > rem {
			k = rem
		}
		wave := frontier[:k]
		frontier = append([]*bnode(nil), frontier[k:]...)
		nodes += k

		snapshot := inc.Load()
		results := make([]waveRes, k)
		var wg sync.WaitGroup
		for wi := 0; wi < k; wi++ {
			wg.Add(1)
			go func(wi int, nd *bnode) {
				defer wg.Done()
				r := &results[wi]
				if snapshot != nil && nd.hasBound && !better(nd.bound, snapshot.obj) {
					r.pruned = true
					return
				}
				lb, ub := p.defaultBounds()
				for _, ov := range nd.overrides {
					if ov.lb > lb[ov.v] {
						lb[ov.v] = ov.lb
					}
					if ov.ub < ub[ov.v] {
						ub[ov.v] = ov.ub
					}
					if lb[ov.v] > ub[ov.v]+eps {
						r.infeasNd = true
						return
					}
				}
				r.res, r.err = relax(ctx, p, lb, ub, nd.seed, o.Kernel)
			}(wi, wave[wi])
		}
		wg.Wait()

		// Apply results in wave order — the sequential part that keeps
		// the search deterministic regardless of worker count.
		for wi := 0; wi < k; wi++ {
			nd, r := wave[wi], &results[wi]
			total.Nodes++
			if r.pruned || r.infeasNd {
				continue
			}
			if r.res != nil {
				total.Add(r.res.stats)
			}
			if r.err != nil {
				if r.err == errCanceled {
					return nil, ctx.Err()
				}
				if r.res != nil && r.res.status == IterLimit {
					// A node whose relaxation cannot be finished within
					// the iteration budget is pruned heuristically.
					continue
				}
				return nil, r.err
			}
			switch r.res.status {
			case Infeasible:
				continue
			case Unbounded:
				return &Solution{Status: Unbounded, Stats: total}, nil
			}
			box := inc.Load()
			if box != nil && !better(r.res.obj, box.obj) {
				continue // bound: relaxation cannot beat the incumbent
			}

			// Find the most fractional integer variable.
			branchVar := VarID(-1)
			worstFrac := intTol
			for _, v := range p.intVars {
				val := r.res.vals[v]
				frac := math.Abs(val - math.Round(val))
				if frac > worstFrac {
					worstFrac = frac
					branchVar = v
				}
			}
			if branchVar == -1 {
				// Integral: snap and accept as incumbent.
				for _, v := range p.intVars {
					r.res.vals[v] = math.Round(r.res.vals[v])
				}
				inc.Store(&incumbentBox{obj: r.res.obj, sol: r.res})
				continue
			}

			val := r.res.vals[branchVar]
			fl := math.Floor(val)
			down := &bnode{
				depth: nd.depth + 1, hasBound: true, bound: r.res.obj,
				overrides: append(append([]override(nil), nd.overrides...),
					override{branchVar, math.Inf(-1), fl}),
				seed: r.res.basis,
			}
			up := &bnode{
				depth: nd.depth + 1, hasBound: true, bound: r.res.obj,
				overrides: append(append([]override(nil), nd.overrides...),
					override{branchVar, fl + 1, math.Inf(1)}),
				seed: r.res.basis,
			}
			// The side nearer the fractional value gets the older seq,
			// so equal-bound ties explore it first.
			if val-fl < 0.5 {
				down.seq, up.seq = seq, seq+1
			} else {
				up.seq, down.seq = seq, seq+1
			}
			seq += 2
			frontier = append(frontier, down, up)
		}
	}

	if box := inc.Load(); box != nil {
		return finishIncumbent(box.sol, p, total), nil
	}
	return &Solution{Status: Infeasible, Stats: total}, nil
}

// finishIncumbent converts the winning node relaxation into the public
// Solution carrying the tree-wide stats.
func finishIncumbent(r *lpResult, p *problem, total Stats) *Solution {
	return &Solution{
		Status:    Optimal,
		Objective: r.obj,
		Values:    r.vals,
		Stats:     total,
		Basis:     r.basis,
	}
}
