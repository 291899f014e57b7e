package gen

import (
	"fmt"
	"testing"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/retime"
	"virtualsync/internal/sta"
)

// TestCalibrationReport prints each suite circuit's baseline period and
// wall requirement (the period-reduction cap). Informational.
func TestCalibrationReport(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	lib := celllib.Default()
	for _, spec := range PaperSuite() {
		c := MustGenerate(spec)
		// Wall requirement: arrival at out_wall.
		r, err := sta.Analyze(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		var wallReq float64
		c.Live(func(n *netlist.Node) {
			if n.Name == "out_wall" {
				wallReq = r.MaxArrival[n.Fanins[0]]
			}
		})
		b, err := retime.Baseline(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		rt := b.Circuit
		r2, err := sta.Analyze(rt, lib)
		if err != nil {
			t.Fatal(err)
		}
		var wallReq2, loopReq float64
		rt.Live(func(n *netlist.Node) {
			if n.Name == "out_wall" {
				wallReq2 = r2.MaxArrival[n.Fanins[0]]
			}
		})
		if ff := rt.ByName("ffloop"); ff != nil {
			loopReq = r2.MaxArrival[ff.Fanins[0]] + lib.FF.Tsu
		}
		fmt.Printf("%-12s base=%6.1f wall=%6.1f cap=%5.1f%% loopreq=%6.1f\n",
			spec.Name, r2.MinPeriod, wallReq2, 100*(1-wallReq2/r2.MinPeriod), loopReq)
		_ = wallReq
	}
}
