package lp

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// maxNodes bounds the branch-and-bound tree. The reproduction's ILPs
// carry at most a few dozen binaries; trees beyond a few thousand nodes
// indicate a hopeless big-M relaxation, where the incumbent (if any) is
// already as good as exhaustive search gets within reasonable time. It
// is the search's only budget: it counts work, not time, so hitting it
// does not depend on the host (Stats.NodeCapped records each hit).
const maxNodes = 1500

// SolveOptions tunes a Solve call. The zero value gives the defaults.
type SolveOptions struct {
	// Warm seeds the root relaxation (and, transitively, the whole tree)
	// from a prior solve's Basis. Incompatible bases are ignored.
	Warm *Basis
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

// override tightens one variable's bounds relative to the parent node.
type override struct {
	v      VarID
	lb, ub float64
}

// bnode is one open branch-and-bound node.
type bnode struct {
	seq       int // creation order; ties in bound break toward older
	hasBound  bool
	bound     float64 // parent relaxation objective (valid dual bound)
	overrides []override
	seed      *Basis // parent's optimal basis
}

// SolveOpts solves the model with explicit options; see SolveOptions.
//
// Branch-and-bound is sequential best-first: each step takes the open
// node with the best dual bound (the bound-free root first, creation
// order breaking ties), prunes it against the incumbent, solves its
// relaxation and either accepts it, branches on its most fractional
// integer variable, or drops it. The search stops at maxNodes nodes;
// the answer depends on the model and options alone. A context
// deadline or cancellation returns an error, never a different answer.
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

	better := func(a, b float64) bool { // is a better than b?
		if m.sense == Minimize {
			return a < b-1e-9
		}
		return a > b+1e-9
	}

	var inc *lpResult
	var total Stats
	frontier := []*bnode{{seq: 0, seed: o.Warm}}
	seq := 1

	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if total.Nodes >= maxNodes {
			total.NodeCapped++
			if inc != nil {
				// Best found so far; callers treat as heuristic.
				return finishIncumbent(inc, total), nil
			}
			return &Solution{Status: IterLimit, Stats: total},
				fmt.Errorf("lp: branch-and-bound limit (%d nodes)", total.Nodes)
		}

		// Best-node selection: best dual bound first, creation order
		// breaking ties (and ordering unbounded roots).
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
		nd := frontier[0]
		frontier = frontier[1:]
		total.Nodes++

		if inc != nil && nd.hasBound && !better(nd.bound, inc.obj) {
			continue // bound: the parent relaxation cannot beat the incumbent
		}
		lb, ub := p.defaultBounds()
		empty := false
		for _, ov := range nd.overrides {
			if ov.lb > lb[ov.v] {
				lb[ov.v] = ov.lb
			}
			if ov.ub < ub[ov.v] {
				ub[ov.v] = ov.ub
			}
			if lb[ov.v] > ub[ov.v]+eps {
				empty = true
				break
			}
		}
		if empty {
			continue // bound overrides crossed: empty domain
		}
		res, err := relax(ctx, p, lb, ub, nd.seed, o.Kernel)
		if res != nil {
			total.Add(res.stats)
		}
		if err != nil {
			if err == errCanceled {
				return nil, ctx.Err()
			}
			if res != nil && res.status == IterLimit {
				// A node whose relaxation cannot be finished within
				// the iteration budget is pruned heuristically.
				continue
			}
			return nil, err
		}
		switch res.status {
		case Infeasible:
			continue
		case Unbounded:
			return &Solution{Status: Unbounded, Stats: total}, nil
		}
		if inc != nil && !better(res.obj, inc.obj) {
			continue // bound: relaxation cannot beat the incumbent
		}

		// Find the most fractional integer variable.
		branchVar := VarID(-1)
		worstFrac := intTol
		for _, v := range p.intVars {
			val := res.vals[v]
			frac := math.Abs(val - math.Round(val))
			if frac > worstFrac {
				worstFrac = frac
				branchVar = v
			}
		}
		if branchVar == -1 {
			// Integral: snap and accept as incumbent.
			for _, v := range p.intVars {
				res.vals[v] = math.Round(res.vals[v])
			}
			inc = res
			continue
		}

		val := res.vals[branchVar]
		fl := math.Floor(val)
		down := &bnode{
			hasBound: true, bound: res.obj,
			overrides: append(append([]override(nil), nd.overrides...),
				override{branchVar, math.Inf(-1), fl}),
			seed: res.basis,
		}
		up := &bnode{
			hasBound: true, bound: res.obj,
			overrides: append(append([]override(nil), nd.overrides...),
				override{branchVar, fl + 1, math.Inf(1)}),
			seed: res.basis,
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

	if inc != nil {
		return finishIncumbent(inc, total), nil
	}
	return &Solution{Status: Infeasible, Stats: total}, nil
}

// finishIncumbent converts the winning node relaxation into the public
// Solution carrying the tree-wide stats.
func finishIncumbent(r *lpResult, total Stats) *Solution {
	return &Solution{
		Status:    Optimal,
		Objective: r.obj,
		Values:    r.vals,
		Stats:     total,
		Basis:     r.basis,
	}
}
