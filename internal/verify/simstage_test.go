package verify

import (
	"fmt"
	"strings"
	"testing"

	"virtualsync/internal/core"
	"virtualsync/internal/gen"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sim"
)

// TestSimStageFlaggedLaneFail pins how simStage maps a verdict onto
// the report (the verdict policy itself is pinned in internal/sim): a
// failure only a widened lane exposes must Fail at stage "sim" with a
// detail naming that lane and the authoritative mismatches attached.
// The pair differs exactly when all three inputs are 1 in one cycle, so
// some stimulus seeds leave lane 0 clean while a wider lane fails.
func TestSimStageFlaggedLaneFail(t *testing.T) {
	build := func(dropC bool) *netlist.Circuit {
		c := netlist.New("and3")
		a := c.MustAdd("a", netlist.KindInput)
		b := c.MustAdd("b", netlist.KindInput)
		last := c.MustAdd("c", netlist.KindInput).ID
		if dropC {
			last = c.MustAdd("zero", netlist.KindConst0).ID
		}
		g1 := c.MustAdd("g1", netlist.KindAnd, a.ID, b.ID)
		g2 := c.MustAdd("g2", netlist.KindAnd, g1.ID, last)
		f := c.MustAdd("F", netlist.KindDFF, g2.ID)
		c.MustAdd("out", netlist.KindOutput, f.ID)
		return c
	}
	ck := NewChecker()
	res := &core.Result{Circuit: build(true), BaselinePeriod: 1000, Period: 1000}
	for seed := int64(1); seed < 200; seed++ {
		rep := &Report{Outcome: Pass, FailLane: -1}
		ck.simStage(&gen.Decoded{Circuit: build(false), Cycles: 16, Warmup: 4, StimSeed: seed}, res, rep)
		if rep.Outcome != Fail || rep.Stage != "sim" {
			t.Fatalf("seed %d: differing pair reported %v", seed, rep)
		}
		if rep.FailLane < 1 {
			continue
		}
		if want := fmt.Sprintf("lane %d: ", rep.FailLane); !strings.HasPrefix(rep.Detail, want) {
			t.Fatalf("detail %q does not name failing lane %d", rep.Detail, rep.FailLane)
		}
		if len(rep.Mismatches) == 0 {
			t.Fatal("flagged-lane failure carries no authoritative mismatches")
		}
		return
	}
	t.Fatal("no stimulus seed left lane 0 clean")
}

// TestLaneWidth pins the lane-width resolution: default, passthrough,
// and the hard MaxLanes cap.
func TestLaneWidth(t *testing.T) {
	ck := NewChecker()
	if got := ck.LaneWidth(); got != 64 {
		t.Fatalf("default lane width %d, want 64", got)
	}
	ck.Lanes = 128
	if got := ck.LaneWidth(); got != 128 {
		t.Fatalf("explicit lane width %d, want 128", got)
	}
	ck.Lanes = sim.MaxLanes * 2
	if got := ck.LaneWidth(); got != sim.MaxLanes {
		t.Fatalf("lane width %d not capped at %d", got, sim.MaxLanes)
	}
}
