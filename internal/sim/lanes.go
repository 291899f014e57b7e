package sim

import (
	"fmt"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/prng"
)

// Engine names reported by LaneReport.
const (
	EngineBitSim  = "bitsim"  // levelized zero-delay two-phase engine
	EngineWaveSim = "wavesim" // word-parallel continuous-time engine
)

// LaneReport summarizes one bit-parallel differential run.
type LaneReport struct {
	Lanes int
	K     int      // words per sample in the compared traces
	Mask  []uint64 // lanes that disagree anywhere past warmup
	// EngineA/EngineB name the engine each side ran on: EngineBitSim
	// when zero-delay semantics are provably exact for that circuit,
	// EngineWaveSim otherwise.
	EngineA, EngineB string
	TraceA, TraceB   *BitTrace
}

// Fail reports whether any compared lane disagreed.
func (r *LaneReport) Fail() bool {
	for _, w := range r.Mask {
		if w != 0 {
			return true
		}
	}
	return false
}

// FlaggedLanes counts the lanes the comparison flagged.
func (r *LaneReport) FlaggedLanes() int { return MaskLanes(r.Mask) }

// LaneStimulus builds per-lane scalar stimulus for c's inputs: lane 0
// uses seed itself (ResetStimulus semantics, so single-lane replays
// reproduce exactly), the rest use prng.LaneSeeds-derived seeds with
// the same reset prefix.
func LaneStimulus(c *netlist.Circuit, cycles, reset int, seed int64, lanes int) [][][]bool {
	out := make([][][]bool, lanes)
	for l, s := range prng.LaneSeeds(seed, lanes) {
		out[l] = ResetStimulus(c, cycles, reset, s)
	}
	return out
}

// settlesWithin reports whether every signal in c reaches its final
// value strictly before the capturing clock edge at period T under the
// event engine's delay model: primary inputs change at the cycle base,
// flip-flop outputs at base+Tcq, and each gate adds its library delay.
// BitSimExact's structural test alone is necessary but not sufficient
// for zero-delay semantics on optimized circuits — VirtualSync removes
// flip-flops precisely so that logic waves span multiple periods while
// leaving only phase-0 DFFs behind. The small relative guard band
// rejects paths landing within float rounding of the edge; the
// fallback engine is exact either way, so erring toward WaveSim only
// costs speed.
func settlesWithin(c *netlist.Circuit, lib *celllib.Library, T float64) bool {
	order, err := c.TopoOrder()
	if err != nil {
		return false
	}
	limit := T * (1 - 1e-9)
	arr := make([]float64, len(c.Nodes))
	for _, n := range order {
		var a float64
		switch n.Kind {
		case netlist.KindInput, netlist.KindConst0, netlist.KindConst1:
			a = 0
		case netlist.KindDFF:
			a = lib.FF.Tcq
		case netlist.KindLatch:
			return false
		case netlist.KindOutput:
			a = arr[n.Fanins[0]]
		default:
			d, err := lib.Delay(n)
			if err != nil {
				return false
			}
			for _, f := range n.Fanins {
				if arr[f] > a {
					a = arr[f]
				}
			}
			a += d
		}
		if a >= limit {
			return false
		}
		arr[n.ID] = a
	}
	return true
}

// laneEngine runs one circuit bit-parallel on the cheapest exact
// engine: the zero-delay BitSim when BitSimExact holds (every
// sequential element a phase-0 flip-flop) AND every path settles
// within one period (zero-delay and event semantics then provably
// coincide), the continuous-time WaveSim otherwise.
func laneEngine(c *netlist.Circuit, lib *celllib.Library, T float64, cycles, lanes int, words [][]uint64) (*BitTrace, string, error) {
	if BitSimExact(c) && settlesWithin(c, lib, T) {
		bs, err := NewBit(c, BitOptions{Cycles: cycles, Lanes: lanes})
		if err != nil {
			return nil, "", err
		}
		tr, err := bs.Run(words)
		if err == nil {
			return tr, EngineBitSim, nil
		}
		// Zero-delay settle failure: fall through to the event engine.
	}
	ws, err := NewWave(c, lib, WaveOptions{T: T, Cycles: cycles, Lanes: lanes})
	if err != nil {
		return nil, "", err
	}
	tr, err := ws.Run(words)
	if err != nil {
		return nil, "", err
	}
	return tr, EngineWaveSim, nil
}

// VerifyEquivalenceLanes runs both circuits bit-parallel over the given
// per-lane stimulus — each side on the cheapest engine that is exact
// for it — and compares every common flip-flop and primary output from
// cycle warmup onward, returning the per-lane disagreement mask. Both
// circuits must have the same primary inputs, and every lane must have
// identical cycle count and input width.
//
// The traces in the report alias the engines' internal buffers and are
// valid until those engines run again; VerifyEquivalenceLanes builds
// fresh engines per call, so for its callers they stay valid.
func VerifyEquivalenceLanes(a, b *netlist.Circuit, lib *celllib.Library, Ta, Tb float64, warmup int, stims [][][]bool) (*LaneReport, error) {
	ia, ib := a.Inputs(), b.Inputs()
	if len(ia) != len(ib) {
		return nil, fmt.Errorf("sim: input counts differ: %d vs %d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i].Name != ib[i].Name {
			return nil, fmt.Errorf("sim: input %d name mismatch: %q vs %q", i, ia[i].Name, ib[i].Name)
		}
	}
	words, err := PackStimulus(stims)
	if err != nil {
		return nil, err
	}
	lanes := len(stims)
	cycles := len(stims[0])
	ta, ea, err := laneEngine(a, lib, Ta, cycles, lanes, words)
	if err != nil {
		return nil, err
	}
	tb, eb, err := laneEngine(b, lib, Tb, cycles, lanes, words)
	if err != nil {
		return nil, err
	}
	return &LaneReport{
		Lanes:   lanes,
		K:       laneWords(lanes),
		Mask:    CompareBitTraces(ta, tb, warmup),
		EngineA: ea,
		EngineB: eb,
		TraceA:  ta,
		TraceB:  tb,
	}, nil
}

// confirmLaneCap bounds how many flagged lanes CheckEquivalence
// confirms on the event engine; flags beyond it are not credited.
const confirmLaneCap = 8

// EquivReport is the verdict of CheckEquivalence.
type EquivReport struct {
	// Lanes counts the stimulus lanes the verdict covers: 1 when the
	// event oracle decided, the full width on a fast-path pass with no
	// flags or on a confirmed failure, and the full width less every
	// flagged lane the event engine did not clear otherwise.
	Lanes int
	// FastPath marks verdicts produced by the bit-parallel engines with
	// lane-0 event-engine calibration; false means the event oracle ran.
	FastPath bool
	// FailLane is the lane being simulated when the event engine
	// reported a mismatch or an error; -1 otherwise.
	FailLane int
	// Mismatches are the event-engine trace differences on FailLane;
	// empty means equivalent over every credited lane.
	Mismatches []Mismatch
}

// CheckEquivalence decides whether b is cycle-accurate equivalent to a
// (a at period Ta, b at Tb) over the per-lane stimulus stims, comparing
// every common flip-flop and primary output from cycle warmup onward.
// Lane 0 is the historical single-vector stimulus.
//
// The scalar event engine is the authority; the bit-parallel engines
// only widen coverage. One lane runs the event oracle on both sides.
// Wider stimulus runs both sides through VerifyEquivalenceLanes, and
// lane 0 of each word engine must reproduce the event engine's trace
// (the optimized side always, the original too when it needed WaveSim)
// before any wide verdict is trusted. An engine error, a calibration
// miss or a lane-0 disagreement falls back to the event oracle on lane
// 0, so every lane-0 verdict is that oracle's, byte for byte. Flagged
// wider lanes are confirmed on the event engine lowest-first, up to
// confirmLaneCap of them; a confirmed lane is re-verified through
// VerifyEquivalenceStim before it fails, and flags the event engine
// neither clears nor confirms are subtracted from the credited width.
//
// The report is never nil. A non-nil error is an event-engine failure
// (or unusable input) and is itself the verdict: callers must not read
// it as a pass. FailLane then names the lane being simulated.
func CheckEquivalence(a, b *netlist.Circuit, lib *celllib.Library, Ta, Tb float64, warmup int, stims [][][]bool) (*EquivReport, error) {
	rep := &EquivReport{FailLane: -1}
	if len(stims) == 0 {
		return rep, fmt.Errorf("sim: no stimulus lanes")
	}
	// oracle is the pure event-engine check on lane 0.
	oracle := func() (*EquivReport, error) {
		r := &EquivReport{Lanes: 1, FailLane: -1}
		ms, err := VerifyEquivalenceStim(a, b, lib, Ta, Tb, warmup, stims[0])
		if err != nil {
			return r, err
		}
		if len(ms) > 0 {
			r.FailLane, r.Mismatches = 0, ms
		}
		return r, nil
	}
	if len(stims) == 1 {
		return oracle()
	}
	lr, err := VerifyEquivalenceLanes(a, b, lib, Ta, Tb, warmup, stims)
	if err != nil {
		// An engine rejected the pair (e.g. a zero-delay settle
		// failure): not a verdict.
		return oracle()
	}

	// Calibration. An event-engine error on the optimized side is a
	// verdict, as on the oracle path; WaveSim is exact by construction,
	// so a lane-0 miss means an engine bug and the oracle decides.
	cycles := len(stims[0])
	evB, err := New(b, lib, Options{T: Tb, Cycles: cycles})
	if err != nil {
		return rep, err
	}
	trB, err := evB.Run(stims[0])
	if err != nil {
		return rep, err
	}
	laneB, err := lr.TraceB.Lane(0)
	if err != nil || len(CompareTraces(trB, laneB, warmup)) > 0 {
		return oracle()
	}
	laneA, err := lr.TraceA.Lane(0)
	if err != nil {
		return oracle()
	}
	if lr.EngineA == EngineWaveSim {
		evA, err := New(a, lib, Options{T: Ta, Cycles: cycles})
		if err != nil {
			return oracle()
		}
		trA, err := evA.Run(stims[0])
		if err != nil || len(CompareTraces(trA, laneA, warmup)) > 0 {
			return oracle()
		}
	}
	if len(CompareTraces(laneA, trB, warmup)) > 0 {
		// A lane-0 counterexample must come from the event engine on
		// both sides.
		return oracle()
	}
	rep.FastPath = true
	rep.Lanes = 1

	lanes := len(stims)
	if MaskLanes(lr.Mask) == 0 {
		rep.Lanes = lanes
		return rep, nil
	}
	// Lane 0 cannot be flagged here: both word engines agree with trB.
	// A lane the event engine clears was an engine artifact.
	cleared, checked := 0, 0
	for l := 1; l < lanes && checked < confirmLaneCap; l++ {
		if !MaskHasLane(lr.Mask, l) {
			continue
		}
		checked++
		trL, err := evB.Run(stims[l])
		if err != nil {
			rep.FailLane = l
			return rep, err
		}
		laneL, err := lr.TraceA.Lane(l)
		if err != nil {
			break
		}
		if len(CompareTraces(laneL, trL, warmup)) == 0 {
			cleared++
			continue
		}
		ms, err := VerifyEquivalenceStim(a, b, lib, Ta, Tb, warmup, stims[l])
		if err != nil {
			rep.FailLane = l
			return rep, err
		}
		if len(ms) > 0 {
			rep.Lanes, rep.FailLane, rep.Mismatches = lanes, l, ms
			return rep, nil
		}
	}
	rep.Lanes = lanes - MaskLanes(lr.Mask) + cleared
	return rep, nil
}
