// Package retime implements minimum-period retiming of synchronous
// circuits in the Leiserson-Saxe framework: the FEAS feasibility algorithm
// combined with a binary search over the clock period. Together with the
// sizing package it forms the "retiming&sizing" baseline (Baseline) that
// VirtualSync is compared against in the paper.
//
// The retiming graph uses one vertex per combinational gate plus a host
// vertex aggregating all primary inputs and outputs; edge weights count
// the flip-flops between the endpoints. Flip-flop timing overhead is
// honoured by budgeting each stage with T - tcq - tsu. Latches are not
// supported (original benchmark circuits are edge-triggered only), and
// flip-flop initial states are not preserved — the reproduction uses
// retiming only as a timing/area baseline, as the paper does.
package retime

import (
	"fmt"
	"math"

	"virtualsync/internal/celllib"
	"virtualsync/internal/netlist"
	"virtualsync/internal/sizing"
	"virtualsync/internal/sta"
)

// Graph is a retiming graph. Vertex 0 is the host.
type Graph struct {
	// delay[v] is the combinational delay of vertex v (0 for the host).
	delay []float64
	// edges[i] = (u, v, w): w flip-flops between u and v.
	edges []edge
	// vertexOf maps a combinational gate's NodeID to its vertex index.
	vertexOf map[netlist.NodeID]int
	// gateOf maps a vertex index (>=1) back to the gate node.
	gateOf []netlist.NodeID
}

type edge struct {
	u, v int
	w    int
}

const host = 0

// BuildGraph constructs the retiming graph of a synchronous circuit.
func BuildGraph(c *netlist.Circuit, lib *celllib.Library) (*Graph, error) {
	if len(c.Latches()) > 0 {
		return nil, fmt.Errorf("retime: latches are not supported")
	}
	delays, err := sta.Delays(c, lib)
	if err != nil {
		return nil, fmt.Errorf("retime: %v", err)
	}
	g := &Graph{
		delay:    []float64{0},
		vertexOf: make(map[netlist.NodeID]int),
		gateOf:   []netlist.NodeID{netlist.InvalidID},
	}
	c.Live(func(n *netlist.Node) {
		if n.Kind.IsCombinational() {
			g.vertexOf[n.ID] = len(g.delay)
			g.delay = append(g.delay, delays[n.ID])
			g.gateOf = append(g.gateOf, n.ID)
		}
	})

	// traceBack follows a fanin through flip-flop chains and returns the
	// driving vertex and the number of flip-flops crossed.
	traceBack := func(id netlist.NodeID) (int, int, error) {
		w := 0
		cur := c.Node(id)
		for steps := 0; ; steps++ {
			if steps > len(c.Nodes) {
				return 0, 0, fmt.Errorf("retime: flip-flop-only cycle at %q", cur.Name)
			}
			switch {
			case cur.Kind == netlist.KindDFF:
				w++
				cur = c.Node(cur.Fanins[0])
			case cur.Kind.IsCombinational():
				return g.vertexOf[cur.ID], w, nil
			case cur.Kind == netlist.KindInput || cur.Kind.IsConst():
				return host, w, nil
			default:
				return 0, 0, fmt.Errorf("retime: unexpected node %q (%v) on register chain", cur.Name, cur.Kind)
			}
		}
	}

	var buildErr error
	c.Live(func(n *netlist.Node) {
		if buildErr != nil {
			return
		}
		switch {
		case n.Kind.IsCombinational():
			v := g.vertexOf[n.ID]
			for _, f := range n.Fanins {
				u, w, err := traceBack(f)
				if err != nil {
					buildErr = err
					return
				}
				g.edges = append(g.edges, edge{u, v, w})
			}
		case n.Kind == netlist.KindOutput:
			u, w, err := traceBack(n.Fanins[0])
			if err != nil {
				buildErr = err
				return
			}
			g.edges = append(g.edges, edge{u, host, w})
		}
	})
	if buildErr != nil {
		return nil, buildErr
	}
	return g, nil
}

// NumVertices returns the number of vertices including the host.
func (g *Graph) NumVertices() int { return len(g.delay) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// cp computes Delta(v), the maximum combinational-path delay ending at
// each vertex in the retimed graph (edges with retimed weight zero
// propagate delay). The host is an environment boundary, not a gate:
// delay is not propagated through it (a primary output captured
// combinationally and a primary input launched combinationally are
// distinct timing paths), but Delta(host) still reports the worst
// register-to-output path so the interface budget is checked. It reports
// ok=false when the zero-weight subgraph of real gates has a cycle, which
// makes the candidate period infeasible.
func (g *Graph) cp(r []int) (delta []float64, ok bool) {
	n := len(g.delay)
	adj := make([][]int, n) // zero-weight successor vertices by edge index
	indeg := make([]int, n)
	var intoHost []int // zero-weight edges terminating at the host
	for i, e := range g.edges {
		wr := e.w + r[e.v] - r[e.u]
		if wr != 0 {
			continue
		}
		switch {
		case e.u == host && e.v == host:
			// Purely environmental path; no gate timing involved.
		case e.u == host:
			// Launch at the boundary: already covered by delta[v]'s
			// initialization to d(v).
		case e.v == host:
			intoHost = append(intoHost, i)
		default:
			adj[e.u] = append(adj[e.u], i)
			indeg[e.v]++
		}
	}
	delta = make([]float64, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		delta[v] = g.delay[v]
		if v != host && indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 1 // host never enters the queue
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		processed++
		for _, ei := range adj[u] {
			e := g.edges[ei]
			if d := delta[u] + g.delay[e.v]; d > delta[e.v] {
				delta[e.v] = d
			}
			indeg[e.v]--
			if indeg[e.v] == 0 {
				queue = append(queue, e.v)
			}
		}
	}
	delta[host] = 0
	for _, ei := range intoHost {
		if d := delta[g.edges[ei].u]; d > delta[host] {
			delta[host] = d
		}
	}
	return delta, processed == n
}

// Feasible runs the FEAS algorithm for combinational budget c (the clock
// period minus flip-flop overhead). On success it returns a legal
// retiming r normalized to r[host] = 0.
func (g *Graph) Feasible(c float64) ([]int, bool) {
	n := len(g.delay)
	r := make([]int, n)
	for iter := 0; iter < n-1; iter++ {
		delta, ok := g.cp(r)
		if !ok {
			return nil, false
		}
		changed := false
		for v := 0; v < n; v++ {
			if delta[v] > c+1e-9 {
				r[v]++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	delta, ok := g.cp(r)
	if !ok {
		return nil, false
	}
	for v := 0; v < n; v++ {
		if delta[v] > c+1e-9 {
			return nil, false
		}
	}
	// Normalize to the host and verify nonnegative retimed weights.
	rh := r[host]
	for v := range r {
		r[v] -= rh
	}
	for _, e := range g.edges {
		if e.w+r[e.v]-r[e.u] < 0 {
			return nil, false
		}
	}
	return r, true
}

// MinBudget binary-searches the smallest feasible combinational budget
// within resolution res and returns it with its retiming. The search
// starts from upper bound hi (e.g. the current circuit's worst stage).
func (g *Graph) MinBudget(hi, res float64) (float64, []int, error) {
	lo := 0.0
	for _, d := range g.delay {
		if d > lo {
			lo = d
		}
	}
	if _, ok := g.Feasible(hi); !ok {
		// Grow until feasible (the host interface can make budgets above
		// the current worst stage necessary only in pathological cases).
		for grow := 0; grow < 40; grow++ {
			hi *= 1.5
			if _, ok := g.Feasible(hi); ok {
				break
			}
		}
		if _, ok := g.Feasible(hi); !ok {
			return 0, nil, fmt.Errorf("retime: no feasible budget up to %g", hi)
		}
	}
	for hi-lo > res {
		mid := (lo + hi) / 2
		if _, ok := g.Feasible(mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	r, ok := g.Feasible(hi)
	if !ok {
		return 0, nil, fmt.Errorf("retime: binary search lost feasibility at %g", hi)
	}
	return hi, r, nil
}

// Apply rebuilds the circuit with flip-flops redistributed according to
// retiming r. Flip-flop chains are shared across fanouts of the same
// driver, so the rebuilt circuit uses the minimum number of flip-flops
// for the given r.
func (g *Graph) Apply(c *netlist.Circuit, r []int) (*netlist.Circuit, error) {
	out := netlist.New(c.Name + "_retimed")
	newID := make(map[netlist.NodeID]netlist.NodeID)

	for _, n := range c.Inputs() {
		nn, err := out.Add(n.Name, netlist.KindInput)
		if err != nil {
			return nil, err
		}
		newID[n.ID] = nn.ID
	}
	c.Live(func(n *netlist.Node) {
		if n.Kind.IsConst() {
			nn := out.MustAdd(n.Name, n.Kind)
			newID[n.ID] = nn.ID
		}
	})
	// Gates first (fanins wired after), preserving cell bindings.
	c.Live(func(n *netlist.Node) {
		if !n.Kind.IsCombinational() {
			return
		}
		nn := out.MustAdd(n.Name, n.Kind)
		nn.Cell, nn.Drive = n.Cell, n.Drive
		newID[n.ID] = nn.ID
	})

	// chain returns the node presenting src delayed by k flip-flops,
	// creating shared DFF chains on demand.
	type chainKey struct {
		src netlist.NodeID // new-circuit ID
		k   int
	}
	chains := make(map[chainKey]netlist.NodeID)
	var chain func(src netlist.NodeID, k int) netlist.NodeID
	chain = func(src netlist.NodeID, k int) netlist.NodeID {
		if k == 0 {
			return src
		}
		key := chainKey{src, k}
		if id, ok := chains[key]; ok {
			return id
		}
		prev := chain(src, k-1)
		ff := out.MustAdd(fmt.Sprintf("rff_%s_%d", out.Node(src).Name, k), netlist.KindDFF, prev)
		chains[key] = ff.ID
		return ff.ID
	}

	// traceBack in the original circuit (same as BuildGraph).
	traceBack := func(id netlist.NodeID) (netlist.NodeID, int) {
		w := 0
		cur := c.Node(id)
		for cur.Kind == netlist.KindDFF {
			w++
			cur = c.Node(cur.Fanins[0])
		}
		return cur.ID, w
	}
	rOf := func(origID netlist.NodeID) int {
		if v, ok := g.vertexOf[origID]; ok {
			return r[v]
		}
		return r[host]
	}

	var applyErr error
	c.Live(func(n *netlist.Node) {
		if applyErr != nil {
			return
		}
		switch {
		case n.Kind.IsCombinational():
			nn := out.Node(newID[n.ID])
			for _, f := range n.Fanins {
				srcOrig, w := traceBack(f)
				wNew := w + rOf(n.ID) - rOf(srcOrig)
				if wNew < 0 {
					applyErr = fmt.Errorf("retime: negative weight on edge into %q", n.Name)
					return
				}
				nn.Fanins = append(nn.Fanins, chain(newID[srcOrig], wNew))
			}
		case n.Kind == netlist.KindOutput:
			srcOrig, w := traceBack(n.Fanins[0])
			wNew := w + r[host] - rOf(srcOrig)
			if wNew < 0 {
				applyErr = fmt.Errorf("retime: negative weight on edge into output %q", n.Name)
				return
			}
			out.MustAdd(n.Name, netlist.KindOutput, chain(newID[srcOrig], wNew))
		}
	})
	if applyErr != nil {
		return nil, applyErr
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("retime: rebuilt circuit invalid: %v", err)
	}
	return out, nil
}

// Retime performs minimum-period retiming: it searches the smallest
// feasible stage budget, applies the retiming, and returns the rebuilt
// circuit together with its STA-measured minimum period.
func Retime(c *netlist.Circuit, lib *celllib.Library) (*netlist.Circuit, float64, error) {
	g, err := BuildGraph(c, lib)
	if err != nil {
		return nil, 0, err
	}
	before, err := sta.Analyze(c, lib)
	if err != nil {
		return nil, 0, err
	}
	overhead := lib.FF.Tcq + lib.FF.Tsu
	hi := math.Max(before.MinPeriod-overhead, 1)
	_, r, err := g.MinBudget(hi, 0.01)
	if err != nil {
		return nil, 0, err
	}
	out, err := g.Apply(c, r)
	if err != nil {
		return nil, 0, err
	}
	period, err := sta.MinPeriod(out, lib)
	if err != nil {
		return nil, 0, err
	}
	// Retiming must never hurt: fall back to the original when the
	// rebuilt circuit is not an improvement (e.g. host-bound circuits).
	if period > before.MinPeriod+1e-9 {
		return c.Clone(), before.MinPeriod, nil
	}
	return out, period, nil
}

// BaselineResult is the outcome of the retiming&sizing baseline flow.
type BaselineResult struct {
	Circuit *netlist.Circuit // optimized copy; the input is left untouched
	Period  float64          // minimum period after the flow
	Area    float64
}

// Baseline runs the paper's retiming&sizing baseline ("after thorough
// sizing and retiming"): discrete gate sizing, minimum-period retiming,
// and a final sizing pass with area recovery. The input circuit is not
// modified.
func Baseline(c *netlist.Circuit, lib *celllib.Library) (*BaselineResult, error) {
	work := c.Clone()
	if _, err := sizing.Size(work, lib); err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	rt, _, err := Retime(work, lib)
	if err != nil {
		return nil, fmt.Errorf("retiming: %w", err)
	}
	res, err := sizing.Size(rt, lib)
	if err != nil {
		return nil, fmt.Errorf("post-retiming sizing: %w", err)
	}
	area, err := lib.CircuitArea(rt)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{Circuit: rt, Period: res.PeriodAfter, Area: area}, nil
}
