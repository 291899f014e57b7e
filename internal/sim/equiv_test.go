package sim

import (
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
)

// longPath builds in -> F1 -> NOT g1 -> NOT g2 -> NOT g3 -> F2 -> out:
// structurally BitSim-exact, but with a three-gate combinational path
// that outlives short clock periods.
func longPath() *netlist.Circuit {
	c := netlist.New("longpath")
	in := c.MustAdd("in", netlist.KindInput)
	f1 := c.MustAdd("F1", netlist.KindDFF, in.ID)
	g1 := c.MustAdd("g1", netlist.KindNot, f1.ID)
	g2 := c.MustAdd("g2", netlist.KindNot, g1.ID)
	g3 := c.MustAdd("g3", netlist.KindNot, g2.ID)
	f2 := c.MustAdd("F2", netlist.KindDFF, g3.ID)
	c.MustAdd("out", netlist.KindOutput, f2.ID)
	return c
}

// and4 registers the AND of four inputs; with dropD the fourth input
// is tied to 0, so the two versions differ exactly when all four
// inputs are 1 in one cycle.
func and4(dropD bool) *netlist.Circuit {
	c := netlist.New("and4")
	a := c.MustAdd("a", netlist.KindInput)
	b := c.MustAdd("b", netlist.KindInput)
	cc := c.MustAdd("c", netlist.KindInput)
	last := c.MustAdd("d", netlist.KindInput).ID
	if dropD {
		last = c.MustAdd("zero", netlist.KindConst0).ID
	}
	g1 := c.MustAdd("g1", netlist.KindAnd, a.ID, b.ID)
	g2 := c.MustAdd("g2", netlist.KindAnd, cc.ID, last)
	g3 := c.MustAdd("g3", netlist.KindAnd, g1.ID, g2.ID)
	f := c.MustAdd("F", netlist.KindDFF, g3.ID)
	c.MustAdd("out", netlist.KindOutput, f.ID)
	return c
}

// widerLaneOnlySeed returns a stimulus seed under which lane 0 never
// drives all four and4 inputs high but some wider lane does inside the
// compared window, or -1.
func widerLaneOnlySeed(c *netlist.Circuit, cycles, warmup, lanes int) int64 {
	allOnes := func(cyc []bool) bool { return cyc[0] && cyc[1] && cyc[2] && cyc[3] }
	for s := int64(1); s < 400; s++ {
		stims := LaneStimulus(c, cycles, 0, s, lanes)
		hit0 := false
		for _, cyc := range stims[0] {
			hit0 = hit0 || allOnes(cyc)
		}
		if hit0 {
			continue
		}
		for l := 1; l < lanes; l++ {
			for cyc := warmup; cyc < cycles-1; cyc++ {
				if allOnes(stims[l][cyc]) {
					return s
				}
			}
		}
	}
	return -1
}

// TestCheckEquivalence pins the verdict policy on hand-built pairs:
// which engine decides, how many lanes are credited, and which lane a
// failure is attributed to.
func TestCheckEquivalence(t *testing.T) {
	lib := celllib.Default()
	dNot, err := lib.Delay(longPath().ByName("g1"))
	if err != nil {
		t.Fatal(err)
	}
	// Two of the three gate delays: the path cannot settle, waves overlap.
	waveT := lib.FF.Tcq + 2*dNot
	if settlesWithin(longPath(), lib, waveT) {
		t.Fatal("long path settles at the wave period; the original would run BitSim")
	}
	inverted := pipeline(t)
	inverted.ByName("g").Kind = netlist.KindBuf
	const lanes = 64
	flagSeed := widerLaneOnlySeed(and4(false), 16, 4, lanes)
	if flagSeed < 0 {
		t.Fatal("no stimulus seed separates lane 0 from the wider lanes")
	}

	for _, tc := range []struct {
		name string
		a, b *netlist.Circuit
		T    float64
		// stimulus: cycles, seed, lanes (reset 0, warmup 4)
		cycles int
		seed   int64
		lanes  int

		wantFast  bool
		wantLanes int
		failLane  int // -1: equivalent; 1: any wider lane
	}{
		// Both sides leave BitSim's proven-exact domain, so the original
		// runs WaveSim too and its calibration leg must execute.
		{name: "wave-both-sides", a: longPath(), b: longPath(), T: waveT,
			cycles: 20, seed: 3, lanes: lanes, wantFast: true, wantLanes: lanes, failLane: -1},
		// One lane is the event oracle alone.
		{name: "one-lane-oracle", a: longPath(), b: longPath(), T: waveT,
			cycles: 20, seed: 3, lanes: 1, wantLanes: 1, failLane: -1},
		// A difference lane 0 exposes is decided by the event oracle on
		// both sides: the single-lane report shape, no fast-path claim.
		{name: "lane-zero-fail", a: pipeline(t), b: inverted, T: 1000,
			cycles: 16, seed: 5, lanes: lanes, wantLanes: 1, failLane: 0},
		// A bug only a wider lane exposes is confirmed on the event
		// engine, re-verified by the oracle and attributed to that lane.
		{name: "flagged-lane-fail", a: and4(false), b: and4(true), T: 1000,
			cycles: 16, seed: flagSeed, lanes: lanes, wantFast: true, wantLanes: lanes, failLane: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stims := LaneStimulus(tc.a, tc.cycles, 0, tc.seed, tc.lanes)
			rep, err := CheckEquivalence(tc.a, tc.b, lib, tc.T, tc.T, 4, stims)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FastPath != tc.wantFast || rep.Lanes != tc.wantLanes {
				t.Fatalf("fast=%v lanes=%d, want fast=%v lanes=%d", rep.FastPath, rep.Lanes, tc.wantFast, tc.wantLanes)
			}
			if (tc.failLane < 0) != (len(rep.Mismatches) == 0) {
				t.Fatalf("lane %d mismatches %v, want failing lane %d", rep.FailLane, rep.Mismatches, tc.failLane)
			}
			if tc.failLane <= 0 && rep.FailLane != tc.failLane || tc.failLane > 0 && rep.FailLane < 1 {
				t.Fatalf("failure attributed to lane %d, want lane %d", rep.FailLane, tc.failLane)
			}
		})
	}
}

// TestCheckEquivalenceRejects pins the error verdicts: no stimulus,
// and circuits whose inputs differ (the bit-parallel engines reject
// the pair, and so does the event oracle they fall back to).
func TestCheckEquivalenceRejects(t *testing.T) {
	lib := celllib.Default()
	a := pipeline(t)
	if _, err := CheckEquivalence(a, a, lib, 10, 10, 2, nil); err == nil {
		t.Fatal("empty stimulus accepted")
	}
	other := netlist.New("other")
	in := other.MustAdd("x", netlist.KindInput)
	f := other.MustAdd("F", netlist.KindDFF, in.ID)
	other.MustAdd("out", netlist.KindOutput, f.ID)
	rep, err := CheckEquivalence(a, other, lib, 10, 10, 2, LaneStimulus(a, 8, 0, 1, 64))
	if err == nil {
		t.Fatal("pair with differing inputs accepted")
	}
	if rep == nil || rep.FastPath || rep.Lanes != 1 {
		t.Fatalf("input mismatch must be the event oracle's verdict, got %+v", rep)
	}
}
