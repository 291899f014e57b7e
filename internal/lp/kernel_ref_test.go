package lp

import (
	"math"
	"math/rand"
	"runtime"
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

func newLockstep(t *testing.T, p *problem) *lockstepKernel {
	return &lockstepKernel{t: t, prod: newDenseKernel(p), ref: newRefDenseKernel(p), scratch: make([]float64, p.m)}
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

func (k *lockstepKernel) ftranVec(rhs, x []float64) {
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

// checkDenseAgainstReference solves the model cold and then warm from
// its own optimal basis, three ways each: in lockstep (every kernel
// output and B⁻¹ compared after every call), and separately on the
// production and reference kernels (pivot sequence, Stats and result
// compared).
func checkDenseAgainstReference(t *testing.T, m *Model) {
	t.Helper()
	p, err := m.compile()
	if err != nil {
		t.Fatal(err)
	}
	var seed *Basis
	for round := 0; round < 2; round++ {
		solveWithKernel(p, seed, newLockstep(t, p))
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
			return
		}
		seed = want.basis
	}
}

// TestDenseKernelMatchesReference holds the sparse-row dense kernel to
// the original full-row one, bit for bit, on the differential suite's
// random and timing-shaped LPs.
func TestDenseKernelMatchesReference(t *testing.T) {
	for seed := 0; seed < 300; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		checkDenseAgainstReference(t, randomLP(rng))
	}
	for _, n := range []int{10, 60, 200} {
		rng := rand.New(rand.NewSource(int64(77 + n)))
		m, _ := timingLP(rng, n)
		checkDenseAgainstReference(t, m)
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
