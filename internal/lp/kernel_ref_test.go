package lp

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// refDenseKernel is the original dense B⁻¹ kernel, kept verbatim as the
// oracle for denseKernel: every update and btran walks whole rows.
type refDenseKernel struct {
	p    *problem
	binv [][]float64 // dense B⁻¹, m×m, rows in slot space
}

func newRefDenseKernel(p *problem) *refDenseKernel {
	k := &refDenseKernel{p: p, binv: make([][]float64, p.m)}
	flat := make([]float64, p.m*p.m)
	for i := range k.binv {
		k.binv[i] = flat[i*p.m : (i+1)*p.m]
		k.binv[i][i] = 1
	}
	return k
}

func (k *refDenseKernel) ftranCol(e int, alpha []float64) {
	idx, val := k.p.colIdx[e], k.p.colVal[e]
	for i := 0; i < k.p.m; i++ {
		row := k.binv[i]
		sum := 0.0
		for kk, r := range idx {
			sum += row[r] * val[kk]
		}
		alpha[i] = sum
	}
}

func (k *refDenseKernel) ftranVec(rhs, x []float64) {
	for i := 0; i < k.p.m; i++ {
		row := k.binv[i]
		sum := 0.0
		for kk, rk := range rhs {
			if rk != 0 {
				sum += row[kk] * rk
			}
		}
		x[i] = sum
	}
}

func (k *refDenseKernel) btran(cB, y []float64) {
	m := k.p.m
	for kk := 0; kk < m; kk++ {
		y[kk] = 0
	}
	for i := 0; i < m; i++ {
		c := cB[i]
		if c == 0 {
			continue
		}
		for kk, v := range k.binv[i] {
			if v != 0 {
				y[kk] += c * v
			}
		}
	}
}

func (k *refDenseKernel) btranUnit(slot int, rho []float64) {
	copy(rho, k.binv[slot])
}

// update applies the rank-one basis change: column e enters at the given
// slot (alpha already holds B⁻¹A_e). Sub-epsilon multipliers are skipped
// and sub-epsilon residues zeroed after each row update, so numerical
// dust neither spreads through B⁻¹ nor creeps into later ratio tests.
func (k *refDenseKernel) update(slot, e int, alpha []float64) bool {
	br := k.binv[slot]
	inv := 1 / alpha[slot]
	for kk, v := range br {
		if v != 0 {
			v *= inv
			if v < dropTol && v > -dropTol {
				v = 0
			}
			br[kk] = v
		}
	}
	for i := range k.binv {
		if i == slot {
			continue
		}
		a := alpha[i]
		if a < dropTol && a > -dropTol {
			continue
		}
		bi := k.binv[i]
		for kk, w := range br {
			if w == 0 {
				continue
			}
			v := bi[kk] - a*w
			if v < dropTol && v > -dropTol {
				v = 0
			}
			bi[kk] = v
		}
	}
	return false
}

func (k *refDenseKernel) refactor([]int32) ([][2]int32, bool) { return nil, false }

func (k *refDenseKernel) kstats() KernelStats { return KernelStats{} }

// lockstepKernel drives the production dense kernel and the reference
// with the same calls, returns the production outputs, and fails on the
// first bitwise difference in any output or in B⁻¹. After every update
// it also checks that each row's nonzeros lie inside its [lo, hi) range.
type lockstepKernel struct {
	t       *testing.T
	prod    *denseKernel
	ref     *refDenseKernel
	scratch []float64
}

func newLockstep(t *testing.T, p *problem, prod *denseKernel) *lockstepKernel {
	ref := newRefDenseKernel(p)
	for i, row := range prod.binv {
		for kk, v := range row {
			if math.Float64bits(v) != math.Float64bits(ref.binv[i][kk]) {
				t.Fatalf("fresh B⁻¹[%d][%d] = %v, not the identity", i, kk, v)
			}
		}
	}
	return &lockstepKernel{t: t, prod: prod, ref: ref, scratch: make([]float64, p.m)}
}

func (k *lockstepKernel) same(op string, got, want []float64) {
	k.t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			k.t.Fatalf("%s: [%d] = %v, reference %v", op, i, got[i], want[i])
		}
	}
}

func (k *lockstepKernel) ftranCol(e int, alpha []float64) {
	k.prod.ftranCol(e, alpha)
	k.ref.ftranCol(e, k.scratch)
	k.same("ftranCol", alpha, k.scratch)
}

// ftranVec also asserts the production kernel's precondition: the
// row-range sweep is bit-identical to the full-row one only for a finite
// rhs (0·Inf is NaN). The solver's rhs is b − A_N·x_N with every
// nonbasic column resting at a finite bound or at 0.
func (k *lockstepKernel) ftranVec(rhs, x []float64) {
	k.t.Helper()
	for i, v := range rhs {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			k.t.Fatalf("ftranVec rhs[%d] = %v: the row-range sweep needs a finite rhs", i, v)
		}
	}
	k.prod.ftranVec(rhs, x)
	k.ref.ftranVec(rhs, k.scratch)
	k.same("ftranVec", x, k.scratch)
}

func (k *lockstepKernel) btran(cB, y []float64) {
	k.prod.btran(cB, y)
	k.ref.btran(cB, k.scratch)
	k.same("btran", y, k.scratch)
}

func (k *lockstepKernel) btranUnit(slot int, rho []float64) {
	k.prod.btranUnit(slot, rho)
	k.ref.btranUnit(slot, k.scratch)
	k.same("btranUnit", rho, k.scratch)
}

func (k *lockstepKernel) update(slot, e int, alpha []float64) bool {
	k.t.Helper()
	want := k.ref.update(slot, e, alpha)
	if got := k.prod.update(slot, e, alpha); got != want {
		k.t.Fatalf("update returned %v, reference %v", got, want)
	}
	for i, row := range k.prod.binv {
		k.same("B⁻¹ row", row, k.ref.binv[i])
		for kk, v := range row {
			if v != 0 && (kk < int(k.prod.lo[i]) || kk >= int(k.prod.hi[i])) {
				k.t.Fatalf("B⁻¹[%d][%d] = %v outside the row range [%d,%d)",
					i, kk, v, k.prod.lo[i], k.prod.hi[i])
			}
		}
	}
	return want
}

func (k *lockstepKernel) refactor(b []int32) ([][2]int32, bool) { return k.prod.refactor(b) }

func (k *lockstepKernel) kstats() KernelStats { return k.prod.kstats() }

// recordingKernel logs every update an inner kernel absorbs: the slot,
// the entering column and a copy of the FTRAN column.
type recordingKernel struct {
	basisKernel
	slots, cols []int
	alphas      [][]float64
}

func (k *recordingKernel) update(slot, e int, alpha []float64) bool {
	k.slots = append(k.slots, slot)
	k.cols = append(k.cols, e)
	k.alphas = append(k.alphas, append([]float64(nil), alpha...))
	return k.basisKernel.update(slot, e, alpha)
}

// replay applies the first n recorded updates to another kernel.
func (k *recordingKernel) replay(to basisKernel, n int) {
	for j, slot := range k.slots[:n] {
		to.update(slot, k.cols[j], k.alphas[j])
	}
}

// solveWithKernel runs solveLP's two-phase simplex on the dense path
// with kern in place of the solver's own kernel.
func solveWithKernel(p *problem, seed *Basis, kern basisKernel) (*lpResult, error) {
	lb, ub := p.defaultBounds()
	s := newSolver(nil, p, lb, ub, KernelDense)
	s.kern = kern
	return s.solve(seed)
}

// sameResult requires bitwise-equal solve results.
func sameResult(t *testing.T, got, want *lpResult) {
	t.Helper()
	if got.status != want.status || got.stats != want.stats ||
		math.Float64bits(got.obj) != math.Float64bits(want.obj) || len(got.vals) != len(want.vals) {
		t.Fatalf("result differs: %v %+v obj %v vs reference %v %+v obj %v",
			got.status, got.stats, got.obj, want.status, want.stats, want.obj)
	}
	for j := range got.vals {
		if math.Float64bits(got.vals[j]) != math.Float64bits(want.vals[j]) {
			t.Fatalf("vals[%d] = %v, reference %v", j, got.vals[j], want.vals[j])
		}
	}
	if (got.basis == nil) != (want.basis == nil) ||
		(got.basis != nil && string(got.basis.stat) != string(want.basis.stat)) {
		t.Fatal("final basis differs")
	}
}

// reusedDenseKernel returns a dense kernel that has served a different
// LP of p's shape — p with its objective negated, which pivots
// elsewhere — and been reset for p, as the solver reuses a pooled one.
// It reports how many pivots the other LP left in the kernel.
func reusedDenseKernel(t *testing.T, p *problem) (*denseKernel, int) {
	t.Helper()
	other := &problem{
		m: p.m, nv: p.nv, n: p.n, colIdx: p.colIdx, colVal: p.colVal,
		b: p.b, lb: p.lb, ub: p.ub, cost: make([]float64, p.n),
	}
	for j, c := range p.cost {
		other.cost[j] = -c
	}
	lb, ub := other.defaultBounds()
	s := newSolver(nil, other, lb, ub, KernelDense)
	res, _ := s.solve(nil)
	return s.kern.(*denseKernel).reuse(p), res.stats.Pivots() + res.stats.CrashPivots
}

// checkDenseAgainstReference solves the model cold and then warm from
// its own optimal basis, four ways each: in lockstep (every kernel
// output and B⁻¹ compared after every call) on a new or pooled kernel
// and on a kernel reused after a different LP, and separately on the
// production and reference kernels (pivot sequence, Stats and result
// compared). It reports the pivots the reused kernel carried in.
func checkDenseAgainstReference(t *testing.T, m *Model) (reusedPivots int) {
	t.Helper()
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	var seed *Basis
	for round := 0; round < 2; round++ {
		solveWithKernel(p, seed, newLockstep(t, p, newDenseKernel(p)))
		reused, pivots := reusedDenseKernel(t, p)
		reusedPivots += pivots
		solveWithKernel(p, seed, newLockstep(t, p, reused))
		prod := &recordingKernel{basisKernel: newDenseKernel(p)}
		ref := &recordingKernel{basisKernel: newRefDenseKernel(p)}
		got, _ := solveWithKernel(p, seed, prod)
		want, _ := solveWithKernel(p, seed, ref)
		if len(prod.slots) != len(ref.slots) {
			t.Fatalf("round %d: %d pivots, reference %d", round, len(prod.slots), len(ref.slots))
		}
		for i := range prod.slots {
			if prod.slots[i] != ref.slots[i] || prod.cols[i] != ref.cols[i] {
				t.Fatalf("round %d: pivot %d is (%d,%d), reference (%d,%d)",
					round, i, prod.slots[i], prod.cols[i], ref.slots[i], ref.cols[i])
			}
		}
		sameResult(t, got, want)
		if want.basis == nil {
			return reusedPivots
		}
		seed = want.basis
	}
	return reusedPivots
}

// TestDenseKernelMatchesReference holds the sparse-row dense kernel to
// the original full-row one, bit for bit, on the differential suite's
// random and timing-shaped LPs, including a kernel reset for reuse
// after another LP's pivots.
func TestDenseKernelMatchesReference(t *testing.T) {
	reused := 0
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		reused += checkDenseAgainstReference(t, randomLP(rng))
	}
	for _, n := range []int{10, 60, 200} {
		rng := rand.New(rand.NewSource(int64(77 + n)))
		m, _ := timingLP(rng, n)
		reused += checkDenseAgainstReference(t, m)
	}
	if reused == 0 {
		t.Fatal("no reused kernel carried pivots from its previous LP")
	}
}

// recordTimingPivots solves an n-stage timing-shaped LP on the dense
// kernel and returns the problem with its recorded updates.
func recordTimingPivots(b *testing.B, n int) (*problem, *recordingKernel) {
	m, _ := timingLP(rand.New(rand.NewSource(int64(n))), n)
	p, err := m.compile()
	if err != nil {
		b.Fatal(err)
	}
	rec := &recordingKernel{basisKernel: newDenseKernel(p)}
	if res, err := solveWithKernel(p, nil, rec); err != nil || res.status != Optimal {
		b.Fatalf("record solve: %v %v", res.status, err)
	}
	return p, rec
}

// denseImpls are the two dense kernels the layer benches compare.
var denseImpls = []struct {
	name string
	new  func(*problem) basisKernel
}{
	{"sparse-row", func(p *problem) basisKernel { return newDenseKernel(p) }},
	{"reference", func(p *problem) basisKernel { return newRefDenseKernel(p) }},
}

func reportProcs(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	b.ReportMetric(float64(runtime.NumCPU()), "numcpu")
}

// BenchmarkDenseUpdate replays the recorded pivot sequence of a
// 400-stage timing LP from the identity basis; one op is the whole
// sequence.
func BenchmarkDenseUpdate(b *testing.B) {
	p, rec := recordTimingPivots(b, 400)
	for _, impl := range denseImpls {
		b.Run("impl="+impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec.replay(impl.new(p), len(rec.slots))
			}
			b.ReportMetric(float64(len(rec.slots)), "pivots/op")
			b.ReportMetric(float64(p.m), "rows")
			reportProcs(b)
		})
	}
}

// BenchmarkDenseBtran prices against the B⁻¹ of eight points along the
// recorded sequence (after 1/8, 2/8, …, all of its pivots), as the
// simplex does throughout a solve, with a dense basic-cost vector; one
// op is one BTRAN at each of the eight points.
func BenchmarkDenseBtran(b *testing.B) {
	p, rec := recordTimingPivots(b, 400)
	cB := make([]float64, p.m)
	for i := range cB {
		cB[i] = 1 + float64(i%7)
	}
	y := make([]float64, p.m)
	for _, impl := range denseImpls {
		b.Run("impl="+impl.name, func(b *testing.B) {
			var ks []basisKernel
			for part := 1; part <= 8; part++ {
				k := impl.new(p)
				rec.replay(k, len(rec.slots)*part/8)
				ks = append(ks, k)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range ks {
					k.btran(cB, y)
				}
			}
			b.ReportMetric(float64(p.m), "rows")
			reportProcs(b)
		})
	}
}

// BenchmarkDenseFtran runs both FTRANs against the B⁻¹ of eight points
// along the recorded sequence of a 400-stage timing LP: ftranVec on the
// LP's right-hand side, and ftranCol on every structural column. One op
// is one call at each of the eight points (ftranCol: one per column).
func BenchmarkDenseFtran(b *testing.B) {
	p, rec := recordTimingPivots(b, 400)
	x := make([]float64, p.m)
	kernels := func(impl func(*problem) basisKernel) []basisKernel {
		var ks []basisKernel
		for part := 1; part <= 8; part++ {
			k := impl(p)
			rec.replay(k, len(rec.slots)*part/8)
			ks = append(ks, k)
		}
		return ks
	}
	for _, impl := range denseImpls {
		b.Run("op=vec/impl="+impl.name, func(b *testing.B) {
			ks := kernels(impl.new)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range ks {
					k.ftranVec(p.b, x)
				}
			}
			b.ReportMetric(float64(p.m), "rows")
			reportProcs(b)
		})
		b.Run("op=col/impl="+impl.name, func(b *testing.B) {
			ks := kernels(impl.new)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range ks {
					for e := 0; e < p.nv; e++ {
						k.ftranCol(e, x)
					}
				}
			}
			b.ReportMetric(float64(p.m), "rows")
			reportProcs(b)
		})
	}
}

// TestDenseKernelPoolConcurrent solves LPs of a few shared sizes from
// several goroutines at once, as parallel branch-and-bound workers do,
// so pooled kernels move between solves and goroutines. Every result
// must match the same solve on the reference kernel bit for bit.
func TestDenseKernelPoolConcurrent(t *testing.T) {
	var probs []*problem
	var want []*lpResult
	for _, n := range []int{10, 10, 30, 30} {
		m, _ := timingLP(rand.New(rand.NewSource(int64(len(probs)))), n)
		p, err := m.compile()
		if err != nil {
			t.Fatal(err)
		}
		r, _ := solveWithKernel(p, nil, newRefDenseKernel(p))
		probs, want = append(probs, p), append(want, r)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (w + round) % len(probs)
				lb, ub := probs[i].defaultBounds()
				got, _ := simplexLP(nil, probs[i], lb, ub, nil, KernelDense)
				if got.status != want[i].status || got.stats != want[i].stats ||
					math.Float64bits(got.obj) != math.Float64bits(want[i].obj) {
					t.Errorf("worker %d: LP %d solved to %v obj %v, reference %v obj %v",
						w, i, got.status, got.obj, want[i].status, want[i].obj)
				}
			}
		}(w)
	}
	wg.Wait()
}
