package lp

import "math"

// Infeasibility refutation by activity-bound propagation.
//
// Every compiled row i reads A_i x + s_i = b_i, so with the slack's
// working bounds [lb_s, ub_s] the row activity is boxed:
//
//	L_i = b_i − ub_s ≤ A_i x ≤ b_i − lb_s = U_i.
//
// The activity of a row also lies between the sums of each term's
// smaller and larger end over the column boxes (minAct, maxAct). A row
// whose minAct exceeds U_i or whose maxAct falls below L_i cannot be
// met; otherwise each term's share of the slack tightens its column.
// Sweeping the rows with the tightened boxes carries a bound along a
// chain of timing constraints one row at a time, so a contradiction
// anywhere in the chain surfaces without a single pivot.
//
// The pass reads the working bounds and writes only its own scratch
// copies: the simplex never sees a tightened bound. An LP the pass does
// not refute therefore runs exactly as it would without the pass.

const (
	// refutePasses caps the row sweeps per solve. A sweep is O(nnz),
	// far below one simplex pivot on the dense kernel; the cap bounds
	// the work on cycles that tighten geometrically without end.
	refutePasses = 64
	// refuteMargin is the relative violation, over (1 + |bound|), that
	// a row activity or a crossed column box must show before the pass
	// declares the LP infeasible: far above the simplex's feasTol, so a
	// row the simplex would accept within tolerance is never refuted.
	refuteMargin = 1e-5
	// roundRel scales the outward rounding applied to every derived
	// column bound: a sum of n terms is exact to n·2⁻⁵³ of its absolute
	// magnitude, so 1e-9 of the magnitude covers any row up to ~10⁷
	// terms.
	roundRel = 1e-9
	// stepRel is the smallest relative improvement worth recording as a
	// tightened bound (and re-queuing the column's rows for).
	stepRel = 1e-7
)

// refuter holds the scratch of one propagation run.
type refuter struct {
	p      *problem
	lo, hi []float64 // tightened structural boxes, length nv
	queued []bool    // per row: a column of the row tightened since its last visit
}

// refute reports whether activity-bound propagation over the working
// bounds lb/ub proves the LP infeasible. It never modifies lb or ub.
func (p *problem) refute(lb, ub []float64) bool {
	p.ensureRows()
	r := refuter{
		p:      p,
		lo:     append([]float64(nil), lb[:p.nv]...),
		hi:     append([]float64(nil), ub[:p.nv]...),
		queued: make([]bool, p.m),
	}
	for i := range r.queued {
		r.queued[i] = true
	}
	for pass := 0; pass < refutePasses; pass++ {
		tightened := false
		for i := 0; i < p.m; i++ {
			if !r.queued[i] {
				continue
			}
			r.queued[i] = false
			L := p.b[i] - ub[p.nv+i]
			U := p.b[i] - lb[p.nv+i]
			infeasible, t := r.row(i, L, U)
			if infeasible {
				return true
			}
			tightened = tightened || t
		}
		if !tightened {
			return false
		}
	}
	return false
}

// row checks row i's activity range against [L, U] and tightens its
// columns. It reports whether the row proves the LP infeasible, and
// whether any column bound moved.
func (r *refuter) row(i int, L, U float64) (infeasible, tightened bool) {
	idx, val := r.p.rowIdx[i], r.p.rowVal[i]
	// minAct/maxAct sum the finite ends; minInf/maxInf count the terms
	// whose end is infinite. scale is the absolute magnitude of the
	// finite terms, the reference for rounding error.
	minAct, maxAct, scale := 0.0, 0.0, 0.0
	minInf, maxInf := 0, 0
	for k, j := range idx {
		a := val[k]
		lo, hi := r.lo[j], r.hi[j]
		if a < 0 {
			lo, hi = hi, lo
		}
		if math.IsInf(lo, 0) {
			minInf++
		} else {
			minAct += a * lo
			scale += math.Abs(a * lo)
		}
		if math.IsInf(hi, 0) {
			maxInf++
		} else {
			maxAct += a * hi
			scale += math.Abs(a * hi)
		}
	}
	if minInf == 0 && minAct-U > refuteMargin*(1+math.Abs(U))+roundRel*scale {
		return true, false
	}
	if maxInf == 0 && L-maxAct > refuteMargin*(1+math.Abs(L))+roundRel*scale {
		return true, false
	}
	finiteU, finiteL := !math.IsInf(U, 0), !math.IsInf(L, 0)
	for k, j := range idx {
		a := val[k]
		minEnd, maxEnd := r.lo[j], r.hi[j] // the column values giving a·x its min/max
		if a < 0 {
			minEnd, maxEnd = maxEnd, minEnd
		}
		// a·x_j ≤ U − (minimum activity of the other terms).
		if finiteU {
			if rest, ok := residual(minAct, minInf, a, minEnd); ok {
				bound := (U - rest) / a
				slop := roundRel * (1 + scale + math.Abs(U)) / math.Abs(a)
				if a > 0 {
					tightened = r.lowerHi(j, bound+slop) || tightened
				} else {
					tightened = r.raiseLo(j, bound-slop) || tightened
				}
			}
		}
		// a·x_j ≥ L − (maximum activity of the other terms).
		if finiteL {
			if rest, ok := residual(maxAct, maxInf, a, maxEnd); ok {
				bound := (L - rest) / a
				slop := roundRel * (1 + scale + math.Abs(L)) / math.Abs(a)
				if a > 0 {
					tightened = r.raiseLo(j, bound-slop) || tightened
				} else {
					tightened = r.lowerHi(j, bound+slop) || tightened
				}
			}
		}
		if r.lo[j]-r.hi[j] > refuteMargin*(1+math.Max(math.Abs(r.lo[j]), math.Abs(r.hi[j]))) {
			return true, tightened
		}
	}
	return false, tightened
}

// residual returns the activity of a row's other terms given the row's
// finite sum and infinite count over all terms, and this term's end x:
// defined when no other term is infinite.
func residual(act float64, inf int, a, x float64) (float64, bool) {
	if math.IsInf(x, 0) {
		return act, inf == 1
	}
	return act - a*x, inf == 0
}

// lowerHi tightens column j's upper bound to v when that is a real
// improvement, queuing the column's rows for another visit.
func (r *refuter) lowerHi(j int32, v float64) bool {
	if !(v < r.hi[j]-stepRel*(1+math.Abs(v))) {
		return false
	}
	r.hi[j] = v
	r.queue(j)
	return true
}

// raiseLo is lowerHi for the lower bound.
func (r *refuter) raiseLo(j int32, v float64) bool {
	if !(v > r.lo[j]+stepRel*(1+math.Abs(v))) {
		return false
	}
	r.lo[j] = v
	r.queue(j)
	return true
}

func (r *refuter) queue(j int32) {
	for _, i := range r.p.colIdx[j] {
		r.queued[i] = true
	}
}
