// Command perfbench is PerfSight's end-to-end benchmark. It builds a
// seeded simulated lab, drives the real layers — dataplane, agent
// channels, wire v2, controller or ingest, history, anomaly detection
// and diagnosis — through one workload, checks the outputs, and prints
// every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload pull_tcp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: CPU time, scaled
// by a gauge of the host's speed, and memory. With
// --trace 1 the run alternates untraced blocks with traced ones, in
// which the benchmark times its own calls into each layer; the metrics
// are the per-layer ones, with the wall-clock latencies among them, and
// the spans are written under --workdir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// diagWindow is the window of every operator history read, the
	// controller binary's default SLO window.
	diagWindow = 3 * time.Second
	// diagGrace is how long the hog must have been on before a history
	// read has to infer memory bandwidth.
	diagGrace = time.Second
	// setupRuns is how often a run builds its environment; setup_s is
	// the median and the last build is the one measured.
	setupRuns = 11
)

// metricDef names one reported metric; BENCHMARK.json lists the same.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"records_per_cpu_s", "records/CPU-s", "higher"},
	{"diag_cpu_ms_p50", "ms", "lower"},
	{"sim_vs_per_cpu_s", "vs/CPU-s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"wall.setup_s", "s", "lower"},
	{"wall.collect_ms_p50", "ms", "lower"},
	{"wall.detect_ms_p50", "ms", "lower"},
	{"wall.diag_ms_p50", "ms", "lower"},
	{"wall.sim_speed", "vs/s", "higher"},
	{"host.slowdown", "ratio", "lower"},
	{"sim.run_ms_per_vs", "ms/vs", "lower"},
	{"sim.alloc_mb_per_vs", "MB/vs", "lower"},
	{"sim.allocs_per_tick", "count", "lower"},
	{"agent.fetch_ms", "ms", "lower"},
	{"agent.fetch_allocs", "count", "lower"},
	{"agent.fetch_kb", "KB", "lower"},
	{"agent.netdev_us", "us", "lower"},
	{"agent.softnet_us", "us", "lower"},
	{"agent.ovs_us", "us", "lower"},
	{"agent.qemu_log_us", "us", "lower"},
	{"agent.direct_us", "us", "lower"},
	{"wire.encode_us", "us", "lower"},
	{"wire.decode_us", "us", "lower"},
	{"wire.roundtrip_allocs", "count", "lower"},
	{"wire.frame_bytes", "bytes", "lower"},
	{"wire.encode_fresh_us", "us", "lower"},
	{"wire.decode_fresh_us", "us", "lower"},
	{"wire.frame_fresh_bytes", "bytes", "lower"},
	{"controller.query_ms_p50", "ms", "lower"},
	{"controller.query_ms_p99", "ms", "lower"},
	{"controller.query_errors", "count", "lower"},
	{"controller.sweep_other_ms", "ms", "lower"},
	{"controller.sweep_ms_p99", "ms", "lower"},
	{"controller.sweep_cpu_ms", "ms", "lower"},
	{"ingest.frames", "count", "higher"},
	{"ingest.frames_due_ratio", "ratio", "higher"},
	{"ingest.dropped_batches", "count", "lower"},
	{"ingest.seq_gaps", "count", "lower"},
	{"ingest.queue_depth_max", "count", "lower"},
	{"ingest.lag_ms_p99", "ms", "lower"},
	{"history.append_ns", "ns", "lower"},
	{"history.series", "count", "lower"},
	{"history.resident_points", "count", "lower"},
	{"anomaly.after_sweep_ms", "ms", "lower"},
	{"anomaly.observe_us", "us", "lower"},
	{"anomaly.events", "count", "lower"},
	{"anomaly.incidents", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms_total", "ms", "lower"},
	{"unattributed_share", "ratio", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	notes             []string
	values            map[string]float64
	counts            map[string]int // samples behind each timing metric
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	if n > 0 {
		r.counts[name] = n
	}
}

// unmeasured fails a run that could not measure an end-to-end metric.
func (r *report) unmeasured(msg string) {
	r.problems = append(r.problems, msg)
	r.failed++
}

func (r *report) add(st *loopStats) {
	r.attempted += st.ops
	r.failed += st.failed
	r.problems = append(r.problems, st.problems...)
}

func (r *report) addFaults(f *faults) {
	r.attempted += f.attempted
	r.failed += f.failed
	r.problems = append(r.problems, f.problems...)
}

var workloads = map[string]func(options) (*report, error){
	"pull_tcp":    closedWorkload(pullTCPSpec),
	"push_tcp":    runPushTCP,
	"fleet_fault": closedWorkload(fleetFaultSpec),
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "pull_tcp, push_tcp or fleet_fault")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: picks the fault machines and times")
	flag.IntVar(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "scratch directory for agent logs and spans")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	line, err := execute(o, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// execute runs one workload in a private directory under workdir and
// returns the result line.
func execute(o options, run func(options) (*report, error)) (string, error) {
	dir := filepath.Join(o.workdir, fmt.Sprintf("run-%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	defer removeAll(dir)
	o.workdir = dir
	r, err := run(o)
	if err != nil {
		return "", err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	return r.render(os.Stdout, defs, o)
}

// removeAll removes a run's directory. An agent's connection handler
// can still be appending to a QEMU log when the run returns, so a
// removal that fails is tried again for up to a second.
func removeAll(dir string) {
	for i := 0; i < 100 && os.RemoveAll(dir) != nil; i++ {
		time.Sleep(10 * time.Millisecond)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render prints every metric with its unit and sample count, then the
// problems found, and returns the JSON result line.
func (r *report) render(w *os.File, defs []metricDef, o options) (string, error) {
	res := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		n := ""
		if c, ok := r.counts[d.Name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-28s %14.6g %-14s%s\n", d.Name, v, d.Unit, n)
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("metrics not produced: %v", missing)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	sort.Strings(r.problems)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	fmt.Fprintf(w, "workload %s seed %d: %d operations, %d failed\n", o.workload, o.seed, r.attempted, r.failed)
	b, err := json.Marshal(res)
	return string(b), err
}

// setupTimes is the median cost of one build of a workload's
// environment: process CPU time and wall time, in seconds, and the
// host gauge's slowdown while the builds ran.
type setupTimes struct{ cpu, wall, slowdown float64 }

// setupGaugeSamples is how often the host gauge is sampled after each
// build.
const setupGaugeSamples = 3

// timedSetups builds an environment setupRuns times, closing all but
// the last, and returns the last with the median build costs. The host
// gauge g is sampled between builds, outside the timed part.
func timedSetups[T any](build func() (T, error), closeEnv func(T), g *hostGauge) (T, setupTimes, error) {
	var env T
	var cpu, wall []float64
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // every build starts from a collected heap
		start, cpu0 := time.Now(), cpuTime()
		e, err := build()
		if err != nil {
			return env, setupTimes{}, fmt.Errorf("set-up: %w", err)
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (cpuTime() - cpu0).Seconds())
		g.sample(setupGaugeSamples)
		if i < setupRuns-1 {
			closeEnv(e)
		}
		env = e
	}
	return env, setupTimes{cpu: median(cpu), wall: median(wall), slowdown: g.slowdown()}, nil
}

func pullTCPSpec(dir string) closedSpec {
	return closedSpec{
		lab:        labSpec{Machines: 2, VMs: 16, TCP: true, Dir: dir},
		step:       10 * time.Millisecond,
		diagEvery:  20,
		probeEvery: 100,
		det:        detection{Window: time.Second, Cooldown: 10 * time.Millisecond, ResolveAfter: 200 * time.Millisecond},
		timing: faultTiming{
			Warmup: time.Second, GapMin: time.Second, GapMax: 2 * time.Second,
			Quantum: 10 * time.Millisecond, DetectTimeout: 2 * time.Second, ClearTimeout: 5 * time.Second,
		},
	}
}

func fleetFaultSpec(dir string) closedSpec {
	return closedSpec{
		lab:        labSpec{Machines: 64, VMs: 4, Dir: dir},
		step:       500 * time.Millisecond,
		diagEvery:  1,
		checkDiag:  true,
		probeEvery: 2,
		det:        detection{Window: time.Second, Cooldown: 500 * time.Millisecond, ResolveAfter: 500 * time.Millisecond},
		timing: faultTiming{
			Warmup: time.Second, GapMin: 500 * time.Millisecond, GapMax: 1500 * time.Millisecond,
			Quantum: 500 * time.Millisecond, Hold: diagGrace,
			DetectTimeout: 2 * time.Second, ClearTimeout: 5 * time.Second,
		},
	}
}

func pushTCPSpec(dir string) pushSpec {
	return pushSpec{
		lab: labSpec{
			Machines: 2, VMs: 16, TCP: true, WallClock: true,
			Cadence: 50 * time.Millisecond, Dir: dir,
		},
		det: detection{Window: time.Second, Cooldown: 25 * time.Millisecond, ResolveAfter: 500 * time.Millisecond},
		timing: faultTiming{
			Warmup: time.Second, GapMin: time.Second, GapMax: 2 * time.Second,
			DetectTimeout: 3 * time.Second, ClearTimeout: 10 * time.Second,
		},
	}
}

// workloadEnv is one built workload: a lab, its control plane and the
// loop that drives them.
type workloadEnv interface {
	labOf() *lab
	plane() *controlPlane
	newFaults(seed int64) *faults
	// phase runs the loop for d, sampling the host gauge g between
	// steps; with a prober the phase is traced.
	phase(f *faults, g *hostGauge, d time.Duration, pr *prober) *loopStats
	// quiesce stops background work before the allocation probe.
	quiesce()
	close()
	// layerRows fills the workload's own per-layer rows from the
	// untraced half a and the traced half b.
	layerRows(r *report, all []span, lt layerTimes, a, b *loopStats)
}

func closedWorkload(specFor func(string) closedSpec) func(options) (*report, error) {
	return func(o options) (*report, error) {
		return runWorkload(o, func(dir string, spans *spanLog) (workloadEnv, error) {
			e, err := setupClosed(specFor(dir), spans)
			if err != nil {
				return nil, err
			}
			return e, nil
		})
	}
}

func runPushTCP(o options) (*report, error) {
	return runWorkload(o, func(dir string, spans *spanLog) (workloadEnv, error) {
		e, err := setupPush(pushTCPSpec(dir), spans)
		if err != nil {
			return nil, err
		}
		return e, nil
	})
}

// traceBlocks is how many blocks a traced run alternates between
// untraced and traced, so that both halves see the same lab state.
const traceBlocks = 10

// runWorkload sets the workload up setupRuns times and measures the
// last build: one untraced phase, or alternating untraced and traced
// blocks followed by the allocation probe.
func runWorkload(o options, build func(dir string, spans *spanLog) (workloadEnv, error)) (*report, error) {
	spans := newSpanLog()
	// Every build finds the QEMU logs of the one before, as an agent
	// restarted on a running host does, so only the first build pays
	// the kernel's cost of creating them.
	dir := filepath.Join(o.workdir, "lab")
	g, err := newHostGauge(o.workdir)
	if err != nil {
		return nil, err
	}
	defer g.close()
	env, setup, err := timedSetups(func() (workloadEnv, error) {
		return build(dir, spans)
	}, workloadEnv.close, g)
	if err != nil {
		return nil, err
	}
	defer env.close()
	g.restart()
	f := env.newFaults(o.seed)
	r := newReport()
	d := time.Duration(o.seconds) * time.Second
	if !o.trace {
		st := env.phase(f, g, d, nil)
		r.add(st)
		r.addFaults(f)
		setEndToEnd(r, st, f, setup, g)
		g.close()
		r.set("heap_live_mb", heapLiveMB(), 0)
		return r, nil
	}
	pr, err := newProber(env.labOf(), spans)
	if err != nil {
		return nil, err
	}
	a, b := &loopStats{}, &loopStats{}
	for i := 0; i < traceBlocks; i++ {
		if i%2 == 0 {
			a.merge(env.phase(f, g, d/traceBlocks, nil))
		} else {
			b.merge(env.phase(f, g, d/traceBlocks, pr))
		}
	}
	r.add(a)
	r.add(b)
	r.addFaults(f)
	env.quiesce()
	ac, err := pr.allocProbe()
	if err != nil {
		return nil, err
	}
	all := spans.snapshot()
	lt := aggregate(all)
	setWall(r, a, f, setup, g)
	setLayers(r, lt, b, ac, env.plane())
	env.layerRows(r, all, lt, a, b)
	return r, writeSpanFile(o, all)
}

func writeSpanFile(o options, all []span) error {
	path := filepath.Join(filepath.Dir(o.workdir), "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, all); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(all), path)
	return nil
}

// setEndToEnd fills the end-to-end metrics from an untraced phase.
// They are CPU times and memory: on a shared host, CPU steal stretches
// wall time by a quarter or more in episodes of minutes, which no
// statistic over one run can take out. The wall-clock figures are
// per-layer rows. CPU time still moves with the host, so every CPU cost
// is scaled to the reference host by the gauge's slowdown over the same
// stretch (set-up or loop); the raw figures go on a note line.
func setEndToEnd(r *report, st *loopStats, f *faults, setup setupTimes, g *hostGauge) {
	k := g.slowdown()
	recs, diag := st.recordsPerCPUSecond(), median(st.diagCPUMS)
	sim := st.lab.Seconds() / st.simCPU.Seconds()
	r.set("setup_s", setup.cpu/setup.slowdown, setupRuns)
	r.set("records_per_cpu_s", recs*k, st.records)
	r.set("diag_cpu_ms_p50", diag/k, len(st.diagCPUMS))
	r.set("sim_vs_per_cpu_s", sim*k, 0)
	r.notes = append(r.notes, fmt.Sprintf(
		"host gauge: slowdown %.4g in set-up, %.4g in the loop (copy, mix, sys %.4g ms); unscaled: setup %.4g s, %.6g records/CPU-s, diag %.4g ms, %.4g vs/CPU-s",
		setup.slowdown, k, g.medians(), setup.cpu, recs, diag, sim))
	r.noteWall(st, f, setup)
	if len(f.detectMS) == 0 {
		r.unmeasured("no fault completed within the run")
	}
	if len(st.diagMS) == 0 {
		r.unmeasured("no history read within the run: diag_cpu_ms_p50 unmeasured")
	}
}

// noteWall prints the wall-clock figures of an untraced run beside its
// metrics, for reading only.
func (r *report) noteWall(st *loopStats, f *faults, setup setupTimes) {
	r.notes = append(r.notes, fmt.Sprintf(
		"wall clock: setup %.4g s, collect p50 %.4g ms (n=%d), detect p50 %.4g ms (n=%d), diag p50 %.4g ms (n=%d), sim %.4g vs/s",
		setup.wall, median(st.collectMS), len(st.collectMS), median(f.detectMS), len(f.detectMS),
		median(st.diagMS), len(st.diagMS), st.lab.Seconds()/st.wall.Seconds()))
}

// setWall fills the wall-clock rows of a traced run from its untraced
// half a; detection counts every fault of the run. host.slowdown is
// the gauge the end-to-end CPU costs are scaled by.
func setWall(r *report, a *loopStats, f *faults, setup setupTimes, g *hostGauge) {
	r.set("host.slowdown", g.slowdown(), len(g.samples[0]))
	r.set("wall.setup_s", setup.wall, setupRuns)
	r.set("wall.collect_ms_p50", median(a.collectMS), len(a.collectMS))
	r.set("wall.detect_ms_p50", median(f.detectMS), len(f.detectMS))
	r.set("wall.diag_ms_p50", median(a.diagMS), len(a.diagMS))
	r.set("wall.sim_speed", a.lab.Seconds()/a.wall.Seconds(), 0)
}

// setLayers fills the per-layer metrics every workload shares.
func setLayers(r *report, lt layerTimes, b *loopStats, ac allocCounts, cp *controlPlane) {
	run := lt.get("sim.run")
	r.set("sim.run_ms_per_vs", ms(run.total)/b.lab.Seconds(), run.count)
	r.set("sim.alloc_mb_per_vs", ac.simAllocMBPerVirtualSec, ac.simTicks)
	r.set("sim.allocs_per_tick", ac.simAllocsPerTick, ac.simTicks)

	fetch := lt.get("agent.fetch")
	r.set("agent.fetch_ms", fetch.medianMS(), fetch.count)
	r.set("agent.fetch_allocs", ac.fetchAllocs, ac.fetches)
	r.set("agent.fetch_kb", ac.fetchKB, ac.fetches)
	for _, ch := range channels {
		a := lt.get("agent.fetch." + ch)
		r.set("agent."+ch+"_us", a.medianMS()*1e3, a.count)
	}

	for _, v := range []string{"", "_fresh"} {
		enc, dec := lt.get("wire.encode"+v), lt.get("wire.decode"+v)
		r.set("wire.encode"+v+"_us", enc.medianMS()*1e3, enc.count)
		r.set("wire.decode"+v+"_us", dec.medianMS()*1e3, dec.count)
		bytes := 0.0
		if enc.count > 0 {
			bytes = float64(enc.items) / float64(enc.count)
		}
		r.set("wire.frame"+v+"_bytes", bytes, enc.count)
	}
	r.set("wire.roundtrip_allocs", ac.wireAllocs, ac.trips)

	q, qe := lt.get("controller.query"), lt.get("controller.query_error")
	r.set("controller.query_ms_p50", q.medianMS(), q.count)
	r.set("controller.query_ms_p99", quantile(q.durs, 0.99), q.count)
	r.set("controller.query_errors", float64(qe.count), 0)

	hs := cp.store.Stats()
	r.set("history.series", float64(hs.Series), 0)
	r.set("history.resident_points", float64(hs.Resident), 0)
	as := lt.get("anomaly.after_sweep")
	r.set("anomaly.after_sweep_ms", as.medianMS(), as.count)
	_, events, _ := cp.journal.Stats()
	r.set("anomaly.events", float64(events), 0)
	r.set("anomaly.incidents", float64(len(cp.pipe.Incidents.List("", 0))), 0)

	r.set("runtime.gc_cycles", float64(b.gcCycles), 0)
	r.set("runtime.gc_pause_ms_total", ms(b.gcPause), 0)
	for _, name := range []string{
		"controller.sweep_other_ms", "controller.sweep_ms_p99", "controller.sweep_cpu_ms",
		"ingest.frames", "ingest.frames_due_ratio", "ingest.dropped_batches", "ingest.seq_gaps",
		"ingest.queue_depth_max", "ingest.lag_ms_p99", "history.append_ns", "anomaly.observe_us",
	} {
		r.set(name, 0, 0) // idle on this workload unless its own layer rows say otherwise
	}
}
