package verify

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
)

// TestCheckerSoak runs the differential checker over a deterministic
// batch of decoder inputs: the real pipeline must never fail, and the
// batch must actually exercise the transformation (enough Pass outcomes
// with placed units) rather than skipping everything.
func TestCheckerSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is not -short")
	}
	ck := NewChecker()
	rng := rand.New(rand.NewSource(42))
	var pass, skip, units int
	start := time.Now()
	const cases = 30
	for i := 0; i < cases; i++ {
		data := make([]byte, 8+rng.Intn(100))
		rng.Read(data)
		d, err := gen.DecodeCase(data)
		if err != nil {
			continue
		}
		rep := ck.Check(d)
		switch rep.Outcome {
		case Fail:
			t.Fatalf("case %d: unexpected failure: %v\ncircuit:\n%s", i, rep, d.Circuit.String())
		case Pass:
			pass++
			if rep.Result != nil && rep.Result.NumFFUnits+rep.Result.NumLatchUnits > 0 {
				units++
			}
		case Skip:
			skip++
		}
	}
	t.Logf("soak: %d cases in %v — %d pass (%d with seq units), %d skip",
		cases, time.Since(start).Round(time.Millisecond), pass, units, skip)
	if pass < cases/4 {
		t.Fatalf("only %d/%d cases passed a full differential check — decoder too often infeasible", pass, cases)
	}
}

// TestUnreachableStateSkips pins the reset-flushability precondition on
// the smallest case the shrinker has reached: a free-running toggler
// that no input reaches. The zero-reset prefix cannot flush its
// power-on state, so the two circuits could only be compared on
// power-on phase; the checker must Skip at the sim stage, still
// carrying the optimization result and, under a mutation, the fact
// that it was injected.
func TestUnreachableStateSkips(t *testing.T) {
	c, err := netlist.ParseString("OUTPUT(s1_n22)\nffl_n8 = DFF(s1_n22)\ns1_n22 = NAND(ffl_n8, ffl_n8)\n", "toggler")
	if err != nil {
		t.Fatal(err)
	}
	d := &gen.Decoded{Circuit: c, Cycles: 24, Warmup: 10, StepFrac: 0.01}
	mutated := NewChecker()
	mutated.Mutate = MutationByName("dropped-anchor-shift")
	for _, ck := range []*Checker{NewChecker(), mutated} {
		rep := ck.Check(d)
		if !strings.HasPrefix(rep.String(), "skip [sim]") || rep.Result == nil {
			t.Fatalf("toggler: %v (result %v), want skip [sim] with the result", rep, rep.Result != nil)
		}
		if rep.Mutated != (ck.Mutate != nil) {
			t.Fatalf("toggler: Mutated=%v with mutation %v", rep.Mutated, ck.Mutate)
		}
	}
}
