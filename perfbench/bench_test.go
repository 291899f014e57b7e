package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the benchmark's
// description of its workloads and metrics, in step with the metric
// tables this program prints from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestDigestsIndependentOfGOMAXPROCS runs flow-small's circuits (only
// s5378 with -short) through the flow at GOMAXPROCS=1 and at the host
// count (at least 2, so the branch-and-bound runs wider than one), and
// requires identical result digests: the optimized netlist must be a
// function of its input alone.
func TestDigestsIndependentOfGOMAXPROCS(t *testing.T) {
	names := smallCircuits
	if testing.Short() {
		names = names[:1]
	}
	wide := runtime.NumCPU()
	if wide < 2 {
		wide = 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var digests [2][]string
	for i, procs := range []int{1, wide} {
		runtime.GOMAXPROCS(procs)
		r := newRun(newBench(context.Background(), newTracer(false), 0), 1, 0)
		if err := r.flowRun(names); err != nil {
			t.Fatal(err)
		}
		if r.failed > 0 {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, r.failures)
		}
		digests[i] = r.digests
	}
	for i := range digests[0] {
		if digests[0][i] != digests[1][i] {
			t.Errorf("GOMAXPROCS=1 gives %s, GOMAXPROCS=%d gives %s", digests[0][i], wide, digests[1][i])
		}
	}
}

// TestTracedRunMatchesUntraced checks that the traced path, which makes
// the façade's calls itself, produces the same results as the façade,
// and that its spans nest.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the flow twice")
	}
	var digests [2][]string
	for i, on := range []bool{false, true} {
		tr := newTracer(on)
		r := newRun(newBench(context.Background(), tr, 0), 1, time.Duration(0))
		if err := r.flowRun(smallCircuits[:1]); err != nil {
			t.Fatal(err)
		}
		if r.failed > 0 {
			t.Fatal(r.failures)
		}
		digests[i] = r.digests
		for _, s := range tr.spans {
			if s.End < s.Start {
				t.Errorf("span %s ends before it starts", s.Name)
			}
			if s.Parent >= 0 {
				p := tr.spans[s.Parent]
				if s.Start < p.Start || s.End > p.End {
					t.Errorf("span %s lies outside its parent %s", s.Name, p.Name)
				}
			}
		}
		if on && (tr.count("core.probe") == 0 || tr.count("core.replace") != 1) {
			t.Errorf("traced flow: %d probes, %d replace spans", tr.count("core.probe"), tr.count("core.replace"))
		}
	}
	if digests[0][0] != digests[1][0] {
		t.Errorf("untraced %s, traced %s", digests[0][0], digests[1][0])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 41)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Fatalf("tail of 0..40 = %v at p%v; want 30 at p75 (ten samples beyond)", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Fatalf("short sample tail = %v at p%v; want the maximum", v, pct)
	}
}

func TestBimodal(t *testing.T) {
	if !bimodal([]float64{7.1, 7.0, 21.2, 7.2, 20.9, 21.0}) {
		t.Error("7 s / 21 s split not flagged")
	}
	if bimodal([]float64{10.0, 10.2, 9.9, 10.1, 10.3, 9.8}) {
		t.Error("unimodal sample flagged")
	}
}
