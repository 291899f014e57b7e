// Command perfbench is the end-to-end benchmark of the VirtualSync flow.
// One process runs one workload, one job at a time (closed loop, one
// client), checks every output, and prints a report followed by one
// JSON result line:
//
//	go run . --workload flow-small --seed 1 --seconds 10 --trace 0
//
// Workloads: flow-small, flow-s38584, eco, verify (see README.md).
// --trace 1 makes a separate traced run that reports per-layer metrics
// and writes its spans to the --out directory. --repeat N runs the
// workload N times in fresh processes and summarizes each metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// deadline caps one run so that a stalled flow ends as a reported
// failure well inside the three minutes a run may take.
const deadline = 170 * time.Second

var workloads = []string{"flow-small", "flow-s38584", "eco", "verify"}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	variant  int64
	out      string
	repeat   int
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "run seed: seeds every verification stimulus")
	fs.Float64Var(&o.seconds, "seconds", 12, "measuring time; at least one round always runs")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.Int64Var(&o.variant, "variant", 0, "held-out inputs: offsets every circuit generator seed and redraws the ECO script (0 = paper suite)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps")
	fs.IntVar(&o.repeat, "repeat", 0, "run the workload this many times in fresh processes (seeds seed, seed+1, ...) and summarize")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !validWorkload(o.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloads, ", "))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.repeat > 0 {
		return repeatMain(o, stdout, stderr)
	}
	res, err := runOnce(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if x == w {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOnce runs one workload and prints its report to w. Set-up errors
// (the workload cannot run at all) are returned; failed operations are
// counted in the result.
func runOnce(o options, w io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	tr := newTracer(o.trace == 1)
	r := newRun(newBench(ctx, tr, o.variant), o.seed, time.Duration(o.seconds*float64(time.Second)))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var err error
	switch o.workload {
	case "flow-small":
		err = r.flowRun(smallCircuits)
	case "flow-s38584":
		err = r.flowRun(largeCircuits)
	case "eco":
		err = r.ecoRun()
	case "verify":
		err = r.verifyRun()
	}
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation ran")
	}

	fmt.Fprintf(w, "# perfbench workload=%s seed=%d variant=%d seconds=%g trace=%d\n",
		o.workload, o.seed, o.variant, o.seconds, o.trace)
	fmt.Fprintf(w, "# env gomaxprocs=%d numcpu=%d go=%s cpu=%q\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
	for _, d := range r.digests {
		fmt.Fprintf(w, "# digest %s\n", d)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	put := func(spec metricSpec, v float64, note string) {
		fmt.Fprintf(w, "metric %-26s %14.6f %-6s %-6s %s\n", spec.Name, v, spec.Unit, spec.Better, note)
	}

	if o.trace == 1 {
		vals := r.layerMetrics(&ms0, &ms1)
		for _, spec := range perLayer {
			put(spec, vals[spec.Name], "")
			res.Metrics[spec.Name] = metricValue{vals[spec.Name], spec.Unit}
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d-variant%d.json", o.workload, o.seed, o.variant))
		meta := map[string]any{"workload": o.workload, "seed": o.seed, "variant": o.variant,
			"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(), "go": runtime.Version(), "cpu": cpuModel(),
			"digests": r.digests}
		if err := tr.write(path, meta); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "# spans %d written to %s\n", len(tr.spans), path)
		return res, nil
	}

	cpu, wall := field(r.units, cpuS), field(r.units, wallS)
	tailCPU, tailPct := tail(cpu)
	tailWall, _ := tail(wall)
	vals := map[string]float64{
		"setup_s":              median(field(r.setups, cpuS)),
		"unit_cpu_s":           mean(cpu),
		"unit_alloc_mb":        mean(field(r.units, allocMB)),
		"period_reduction_pct": mean(r.nt),
		"area_saving_pct":      -mean(r.na),
	}
	n := fmt.Sprintf("n=%d", len(cpu))
	tailNote := fmt.Sprintf("p%.0f, %s", tailPct, n)
	setupNote := fmt.Sprintf("median of %d set-ups", len(r.setups))
	notes := map[string]string{"setup_s": setupNote, "unit_cpu_s": "mean, " + n, "unit_alloc_mb": "mean, " + n}
	for _, spec := range endToEnd {
		put(spec, vals[spec.Name], notes[spec.Name])
		res.Metrics[spec.Name] = metricValue{vals[spec.Name], spec.Unit}
	}
	// Workload-specific figures, not in BENCHMARK.json because not every
	// workload measures them: "_s" is wall clock, "_cpu_s" CPU time.
	secs := func(name string, v float64, note string) { put(metricSpec{name, "s", "lower"}, v, note) }
	secs("setup_wall_s", median(field(r.setups, wallS)), setupNote)
	secs("unit_wall_p50_s", median(wall), n)
	secs("unit_cpu_p50_s", median(cpu), n)
	secs("unit_cpu_tail_s", tailCPU, tailNote)
	put(metricSpec{"peak_rss_mb", "MB", "lower"}, peakRSSMB(), "VmHWM")
	switch o.workload {
	case "flow-small", "flow-s38584":
		secs("flow_s", median(wall), n+" passes")
		secs("flow_cpu_s", median(cpu), n+" passes")
	case "eco":
		secs("eco_edit_p50_s", median(wall), n+" edits")
		secs("eco_edit_tail_s", tailWall, tailNote+" edits")
		secs("eco_edit_cpu_p50_s", median(cpu), n+" edits")
		secs("eco_edit_cpu_tail_s", tailCPU, tailNote+" edits")
		put(metricSpec{"eco_period_rise_pct", "%", "lower"}, mean(r.rise), "")
	case "verify":
		t := total(r.units)
		note := fmt.Sprintf("%d lanes", r.lanesN)
		put(metricSpec{"verify_lanes_per_s", "1/s", "higher"}, float64(r.lanesN)/t.wall.Seconds(), note)
		put(metricSpec{"verify_lanes_per_cpu_s", "1/s", "higher"}, float64(r.lanesN)/t.cpu.Seconds(), note)
	}
	put(metricSpec{"area_delta_pct", "%", "lower"}, mean(r.na), "")
	put(metricSpec{"failed_frac", "frac", "lower"}, float64(r.failed)/float64(r.attempted), fmt.Sprintf("%d of %d", r.failed, r.attempted))
	return res, nil
}

// layerMetrics turns the traced run's spans into the per-layer metrics.
func (r *run) layerMetrics(ms0, ms1 *runtime.MemStats) map[string]float64 {
	t := r.tr
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	all := t.solver("core.probe", "core.replace", "eco.reoptimize")
	probes := float64(t.count("core.probe"))
	edits := float64(t.count("eco.reoptimize"))
	v := map[string]float64{
		"gen.generate_ms":          t.cpuMS("gen.generate"),
		"sizing.size_ms":           t.cpuMS("sizing.size"),
		"retime.retime_ms":         t.cpuMS("retime.retime"),
		"sta.analyze_ms":           t.cpuMS("sta.analyze"),
		"core.extract_ms":          t.cpuMS("core.extract"),
		"core.probe_ms":            t.cpuMS("core.probe"),
		"core.probes":              probes,
		"core.probe_feasible_frac": frac(t.attr("core.probe", "feasible"), probes),
		"core.replace_ms":          t.cpuMS("core.replace"),
		"core.chains_replaced":     t.attr("core.optimize", "chains_replaced") + t.attr("eco.reoptimize", "chains_replaced"),
		"core.validate_ms":         t.cpuMS("core.validate"),
		"core.apply_ms":            t.cpuMS("core.apply"),
		"lp.pivots":                float64(all.Pivots()),
		"lp.pivots_replace":        float64(t.solver("core.replace").Pivots()),
		"lp.cold_starts":           float64(all.ColdStarts),
		"lp.warm_hit_rate":         all.WarmHitRate(),
		"lp.bnb_nodes":             float64(all.Nodes),
		"eco.reoptimize_ms":        t.cpuMS("eco.reoptimize"),
		"eco.cone_nodes":           t.attr("eco.reoptimize", "cone_nodes"),
		"sta.arrival_recomputed":   t.attr("eco.reoptimize", "arrival_recomputed"),
		"eco.recovery_steps":       t.attr("eco.reoptimize", "recovery_steps"),
		"eco.fallbacks":            t.attr("eco.reoptimize", "fallback"),
		"eco.spliced_frac":         frac(t.attr("eco.reoptimize", "spliced"), edits),
		"sim.lanes_ms":             t.cpuMS("sim.lanes"),
		"sim.event_ms":             t.cpuMS("sim.event"),
		"sim.flagged_lanes":        t.attr("sim.lanes", "flagged"),
		"sim.engine_a_bitsim":      t.attr("sim.lanes", "engine_a_bitsim"),
		"sim.engine_a_wavesim":     t.attr("sim.lanes", "engine_a_wavesim"),
		"sim.engine_b_bitsim":      t.attr("sim.lanes", "engine_b_bitsim"),
		"sim.engine_b_wavesim":     t.attr("sim.lanes", "engine_b_wavesim"),
		"go.alloc_mb":              float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"go.gc_pause_ms":           float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"trace.overhead_pct":       t.overheadPct(),
	}
	return v
}

// repeatMain runs the workload o.repeat times, each in a fresh process
// of this binary with the next seed, and prints per metric the median,
// quartiles, min and max, the quartile spread as a share of the median,
// and a BIMODAL flag where the runs split into two clusters. Digests
// must agree across runs (seeds only change stimulus).
func repeatMain(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	digests := map[string]map[string]bool{}
	attempted, failed := 0, 0
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		var out strings.Builder
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(o.trace),
			"--variant", fmt.Sprint(o.variant), "--out", o.out)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d: bad result line: %v\n", i+1, err)
			return 1
		}
		attempted += res.Attempted
		failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, "# digest "); ok {
				label, d, _ := strings.Cut(rest, " ")
				if digests[label] == nil {
					digests[label] = map[string]bool{}
				}
				digests[label][d] = true
			}
		}
		fmt.Fprintf(stderr, "perfbench: run %d/%d seed %d done\n", i+1, o.repeat, seed)
	}
	fmt.Fprintf(stdout, "# repeat workload=%s runs=%d seeds=%d..%d variant=%d trace=%d\n",
		o.workload, o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.variant, o.trace)
	fmt.Fprintf(stdout, "# env gomaxprocs=%d numcpu=%d go=%s cpu=%q\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
	fmt.Fprintf(stdout, "%-26s %-6s %14s %14s %14s %14s %14s %8s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "spread")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	summary := map[string]map[string]any{}
	for _, k := range names {
		xs := values[k]
		s := sorted(xs)
		med := median(xs)
		q1, q3 := quartiles(xs)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag := ""
		if bimodal(xs) {
			flag = "BIMODAL"
		}
		fmt.Fprintf(stdout, "%-26s %-6s %14.6f %14.6f %14.6f %14.6f %14.6f %7.2f%% %s\n",
			k, units[k], med, q1, q3, s[0], s[len(s)-1], 100*spread, flag)
		summary[k] = map[string]any{"median": med, "q1": q1, "q3": q3, "min": s[0], "max": s[len(s)-1],
			"spread": spread, "bimodal": flag != "", "unit": units[k]}
	}
	stable := true
	labels := make([]string, 0, len(digests))
	for l := range digests {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if len(digests[l]) != 1 {
			stable = false
			fmt.Fprintf(stdout, "# DIGEST MISMATCH %s: %d distinct results across runs\n", l, len(digests[l]))
		}
	}
	if stable {
		fmt.Fprintf(stdout, "# digests identical across runs (%d results)\n", len(labels))
	}
	line, _ := json.Marshal(map[string]any{"runs": o.repeat, "attempted": attempted, "failed": failed,
		"digests_identical": stable, "metrics": summary})
	fmt.Fprintln(stdout, string(line))
	if failed > 0 || !stable {
		return 1
	}
	return 0
}
