package lp

import "sync"

// Kernel names a basis-inverse representation for the simplex.
//
// The dense kernel keeps an explicit m×m B⁻¹ updated by rank-one pivots
// (O(m²) per pivot, O(m²) memory) — simple, battle-tested, and the
// differential oracle for the sparse kernel. The LU kernel keeps a
// sparse LU factorization of B with product-form eta updates and
// periodic refactorization (O(nnz) per pivot on the near-triangular
// timing bases), which is what lets the solver reach 100k-variable
// instances.
//
// The solver picks the kernel itself (KernelAuto, by constraint-row
// count). Forcing one is an oracle setting for tests and benchmarks
// (SolveOptions.Kernel); no production caller does.
type Kernel int

// Basis kernels.
const (
	// KernelAuto picks the dense kernel below luAutoRows constraint rows
	// and the sparse LU kernel at or above it.
	KernelAuto Kernel = iota
	// KernelDense forces the dense B⁻¹ kernel (the differential oracle).
	KernelDense
	// KernelLU forces the sparse LU kernel at any size.
	KernelLU
)

// luAutoRows is the row count at which KernelAuto switches from the
// dense kernel to the sparse LU kernel. Every paper-suite timing LP
// stays below it (the largest, on s38584, has 1075 rows); big100k is the
// only generated circuit whose LPs cross it.
const luAutoRows = 2048

// resolve maps KernelAuto onto a concrete kernel for an m-row problem.
func (k Kernel) resolve(m int) Kernel {
	if k == KernelAuto {
		if m >= luAutoRows {
			return KernelLU
		}
		return KernelDense
	}
	return k
}

// basisKernel abstracts the basis-inverse representation behind the
// operations the simplex actually needs. All vectors are dense scratch
// owned by the solver; "slot" space indexes basic positions (the
// solver's basis array) and "row" space indexes constraint rows — both
// have length m.
type basisKernel interface {
	// ftranCol computes alpha = B⁻¹ A_e for (sparse) column e.
	ftranCol(e int, alpha []float64)
	// ftranVec computes x = B⁻¹ rhs for a dense right-hand side.
	// rhs is not modified.
	ftranVec(rhs, x []float64)
	// btran computes y = B⁻ᵀ cB (cB in slot space, y in row space),
	// the pricing solve.
	btran(cB, y []float64)
	// btranUnit computes rho = B⁻ᵀ e_slot — the tableau pivot row used
	// by devex weight updates.
	btranUnit(slot int, rho []float64)
	// update applies the basis change of column e entering at the given
	// slot, with alpha = B⁻¹ A_e already computed. It reports whether
	// the kernel wants a refactorization (eta-file growth, small pivot).
	update(slot, e int, alpha []float64) bool
	// refactor rebuilds the representation from the basis columns.
	// Kernels that cannot (the dense kernel, which is built
	// incrementally) return ok = false. Each repairs entry is a
	// (slot, row) pair whose basis column proved (near-)singular: the
	// kernel has patched that slot with the unit column of the row, and
	// the caller must install the matching slack into its basis.
	refactor(basis []int32) (repairs [][2]int32, ok bool)
	// kstats returns the kernel's work counters.
	kstats() KernelStats
}

// KernelStats are basis-kernel work counters, reported through Stats so
// benchmarks can track refactorizations and factor fill.
type KernelStats struct {
	Refactors int // refactorizations performed (excluding the initial one)
	Repairs   int // singular basis slots repaired with slack columns
	Etas      int // current eta-file length
	EtaNnz    int // current eta-file nonzeros
	FactorNnz int // L+U nonzeros of the last factorization (incl. diagonal)
	Bump      int // non-triangular bump size of the last factorization
}

// denseKernel is the dense B⁻¹ kernel: the differential oracle the LU
// kernel is property-tested against, and the default for small problems
// so existing pivot sequences (and golden outputs) are preserved
// bit-for-bit. It is bit-identical to the original full-row kernel (kept
// in kernel_ref_test.go): update and btran skip only terms that are zero.
type denseKernel struct {
	p    *problem
	binv [][]float64 // dense B⁻¹, m×m, rows in slot space
	// lo/hi bound each row's nonzeros: binv[i][kk] == 0 outside
	// [lo[i], hi[i]). The range only widens, except on the pivot row.
	lo, hi []int32
	nz     []int32 // scratch: nonzero columns of the pivot row or of an FTRAN rhs
	before []int32 // scratch: before[kk] counts the rhs nonzeros below kk, length m+1
}

// densePools keeps released dense kernels for reuse, one sync.Pool per
// row count: an m×m B⁻¹ is the bulk of a dense solve's allocation, and
// the repair LPs of one circuit share a handful of sizes.
var densePools sync.Map // int -> *sync.Pool

func densePool(m int) *sync.Pool {
	if pl, ok := densePools.Load(m); ok {
		return pl.(*sync.Pool)
	}
	pl, _ := densePools.LoadOrStore(m, new(sync.Pool))
	return pl.(*sync.Pool)
}

// newDenseKernel returns an identity-basis dense kernel for p, reusing a
// released kernel of the same size when one is pooled.
func newDenseKernel(p *problem) *denseKernel {
	if k, ok := densePool(p.m).Get().(*denseKernel); ok {
		return k.reuse(p)
	}
	k := &denseKernel{
		p:      p,
		binv:   make([][]float64, p.m),
		lo:     make([]int32, p.m),
		hi:     make([]int32, p.m),
		nz:     make([]int32, 0, p.m),
		before: make([]int32, p.m+1),
	}
	flat := make([]float64, p.m*p.m)
	for i := range k.binv {
		k.binv[i] = flat[i*p.m : (i+1)*p.m]
		k.binv[i][i] = 1
		k.lo[i], k.hi[i] = int32(i), int32(i+1)
	}
	return k
}

// reuse restores the identity B⁻¹ for a new problem of the same size.
// Every nonzero of row i lies in [lo[i], hi[i]), so clearing those
// ranges zeroes the whole matrix.
func (k *denseKernel) reuse(p *problem) *denseKernel {
	k.p = p
	for i, row := range k.binv {
		clear(row[k.lo[i]:k.hi[i]])
		row[i] = 1
		k.lo[i], k.hi[i] = int32(i), int32(i+1)
	}
	return k
}

// release returns the kernel to its size's pool. The caller must not
// use it afterwards.
func (k *denseKernel) release() {
	m := len(k.binv)
	k.p = nil
	densePool(m).Put(k)
}

// ftranCol skips each row whose [lo, hi) misses the span of the
// column's row indices (ascending, from compile): every term there is
// 0·A_ie and the sum would be +0 anyway, for finite column values.
func (k *denseKernel) ftranCol(e int, alpha []float64) {
	idx, val := k.p.colIdx[e], k.p.colVal[e]
	if len(idx) == 0 {
		clear(alpha)
		return
	}
	first, last := idx[0], idx[len(idx)-1]
	for i := 0; i < k.p.m; i++ {
		if last < k.lo[i] || first >= k.hi[i] {
			alpha[i] = 0
			continue
		}
		row := k.binv[i]
		sum := 0.0
		for kk, r := range idx {
			sum += row[r] * val[kk]
		}
		alpha[i] = sum
	}
}

// ftranVec visits only the nonzeros of rhs inside each row's [lo, hi),
// in the same ascending order as a full-row sweep. The skipped terms are
// 0·rhs[kk], and adding a zero never changes a sum that starts at +0, so
// the result is bit-identical — provided rhs is finite (0·Inf is NaN).
// The solver's rhs is finite: nonbasic columns rest at finite bounds
// or at 0.
func (k *denseKernel) ftranVec(rhs, x []float64) {
	nz, before := k.nz[:0], k.before
	for kk, v := range rhs {
		before[kk] = int32(len(nz))
		if v != 0 {
			nz = append(nz, int32(kk))
		}
	}
	before[len(rhs)] = int32(len(nz))
	k.nz = nz
	for i := 0; i < k.p.m; i++ {
		row, hi := k.binv[i], k.hi[i]
		sum := 0.0
		if k.lo[i] < hi {
			for _, kk := range nz[before[k.lo[i]]:before[hi]] {
				sum += row[kk] * rhs[kk]
			}
		}
		x[i] = sum
	}
}

func (k *denseKernel) btran(cB, y []float64) {
	m := k.p.m
	for kk := 0; kk < m; kk++ {
		y[kk] = 0
	}
	for i := 0; i < m; i++ {
		c := cB[i]
		if c == 0 {
			continue
		}
		lo := int(k.lo[i])
		for kk, v := range k.binv[i][lo:k.hi[i]] {
			if v != 0 {
				y[lo+kk] += c * v
			}
		}
	}
}

func (k *denseKernel) btranUnit(slot int, rho []float64) {
	copy(rho, k.binv[slot])
}

// update applies the rank-one basis change: column e enters at the given
// slot (alpha already holds B⁻¹A_e). Sub-epsilon multipliers are skipped
// and sub-epsilon residues zeroed after each row update, so numerical
// dust neither spreads through B⁻¹ nor creeps into later ratio tests.
// Only the pivot row's nonzero columns are visited in the other rows.
func (k *denseKernel) update(slot, e int, alpha []float64) bool {
	br := k.binv[slot]
	inv := 1 / alpha[slot]
	nz := k.nz[:0]
	for kk := k.lo[slot]; kk < k.hi[slot]; kk++ {
		if v := br[kk]; v != 0 {
			v *= inv
			if v < dropTol && v > -dropTol {
				v = 0
			} else {
				nz = append(nz, kk)
			}
			br[kk] = v
		}
	}
	k.nz = nz
	if len(nz) == 0 {
		k.lo[slot], k.hi[slot] = 0, 0
		return false
	}
	nzLo, nzHi := nz[0], nz[len(nz)-1]+1
	k.lo[slot], k.hi[slot] = nzLo, nzHi
	for i := range k.binv {
		if i == slot {
			continue
		}
		a := alpha[i]
		if a < dropTol && a > -dropTol {
			continue
		}
		bi := k.binv[i]
		for _, kk := range nz {
			v := bi[kk] - a*br[kk]
			if v < dropTol && v > -dropTol {
				v = 0
			}
			bi[kk] = v
		}
		if k.lo[i] >= k.hi[i] {
			k.lo[i], k.hi[i] = nzLo, nzHi
			continue
		}
		if nzLo < k.lo[i] {
			k.lo[i] = nzLo
		}
		if nzHi > k.hi[i] {
			k.hi[i] = nzHi
		}
	}
	return false
}

func (k *denseKernel) refactor([]int32) ([][2]int32, bool) { return nil, false }

func (k *denseKernel) kstats() KernelStats { return KernelStats{} }
