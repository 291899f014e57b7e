package virtualsync_test

import (
	"strings"
	"testing"

	"virtualsync"
)

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end flow skipped in -short mode")
	}
	c := virtualsync.GenerateBenchmark("s5378")
	lib := virtualsync.DefaultLibrary()

	p, err := virtualsync.MinPeriod(c, lib)
	if err != nil || p <= 0 {
		t.Fatalf("MinPeriod = %g, %v", p, err)
	}

	base, err := virtualsync.RetimeAndSize(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	if base.Period > p {
		t.Fatalf("baseline flow regressed the period: %g -> %g", p, base.Period)
	}
	// The input circuit must be untouched.
	if got, _ := virtualsync.MinPeriod(c, lib); got != p {
		t.Fatal("RetimeAndSize modified its input")
	}

	res, err := virtualsync.Optimize(base.Circuit, lib, virtualsync.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Period > res.BaselinePeriod {
		t.Fatalf("VirtualSync regressed: %g -> %g", res.BaselinePeriod, res.Period)
	}
	ms, err := virtualsync.VerifyEquivalence(base.Circuit, res.Circuit, lib,
		res.BaselinePeriod, res.Period, 32, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("equivalence failed: %v", ms[0])
	}
}

func TestFacadeCircuitIO(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
f = DFF(a)
g = NOT(f)
z = BUF(g)
`
	c, err := virtualsync.LoadCircuit(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := virtualsync.WriteCircuit(&sb, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "NOT(f)") {
		t.Fatalf("round trip lost content:\n%s", sb.String())
	}
	r, err := virtualsync.AnalyzeTiming(c, virtualsync.DefaultLibrary())
	if err != nil {
		t.Fatal(err)
	}
	if r.MinPeriod <= 0 {
		t.Fatal("no period")
	}
}

// TestFacadeCheckEquivalenceLaneRange holds CheckEquivalence to its
// lane range: a count outside 1..4096 is an error, not a quiet
// single-lane check.
func TestFacadeCheckEquivalenceLaneRange(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(z)
f = DFF(a)
z = NOT(f)
`
	c, err := virtualsync.LoadCircuit(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	lib := virtualsync.DefaultLibrary()
	r, err := virtualsync.AnalyzeTiming(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	T := r.MinPeriod
	for _, lanes := range []int{0, 4097} {
		if _, err := virtualsync.CheckEquivalence(c, c, lib, T, T, 16, 2, lanes, 1); err == nil ||
			!strings.Contains(err.Error(), "outside 1..4096") {
			t.Errorf("lanes %d: error %v, want the 1..4096 range", lanes, err)
		}
	}
	rep, err := virtualsync.CheckEquivalence(c, c, lib, T, T, 16, 2, 4096, 1)
	if err != nil || len(rep.Mismatches) != 0 || rep.Lanes != 4096 {
		t.Fatalf("lanes 4096: %+v, %v", rep, err)
	}
}

func TestFacadeBenchmarkNames(t *testing.T) {
	names := virtualsync.BenchmarkNames()
	if len(names) != 10 {
		t.Fatalf("suite size = %d, want 10", len(names))
	}
	for _, n := range names {
		c := virtualsync.GenerateBenchmark(n)
		if c.Len() == 0 {
			t.Fatalf("%s: empty circuit", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateBenchmark(unknown) should panic")
		}
	}()
	virtualsync.GenerateBenchmark("nope")
}

func TestFacadeLibraryIO(t *testing.T) {
	lib := virtualsync.DefaultLibrary()
	if lib.FF.Tcq <= 0 {
		t.Fatal("bad default library")
	}
	if _, err := virtualsync.LoadLibrary(strings.NewReader("library x\n")); err == nil {
		t.Fatal("incomplete library accepted")
	}
}
