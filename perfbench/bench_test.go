package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perfsight/internal/core"
)

// runShort runs one workload for a few seconds and decodes its result
// line.
func runShort(t *testing.T, workload string, seconds int, trace bool) resultLine {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: seconds, trace: trace, workdir: t.TempDir()}
	line, err := execute(o, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var res resultLine
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("%s: result line %q: %v", workload, line, err)
	}
	return res
}

// wantMetrics checks that a result carries exactly the listed metrics.
func wantMetrics(t *testing.T, workload string, res resultLine, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", workload, d.Name, m, d.Unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires zero failed operations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	for _, w := range []string{"pull_tcp", "push_tcp", "fleet_fault"} {
		t.Run(w, func(t *testing.T) {
			res := runShort(t, w, 10, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			wantMetrics(t, w, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			res = runShort(t, w, 10, true)
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("traced: %d of %d failed", res.Failed, res.Attempted)
			}
			wantMetrics(t, w, res, perLayer)
		})
	}
}

// TestPushTCPConcurrent drives push_tcp, the workload where the lab
// ticks on one goroutine while agents stream from others. Run it under
// the race detector: go test -race -run PushTCPConcurrent .
func TestPushTCPConcurrent(t *testing.T) {
	res := runShort(t, "push_tcp", 3, true)
	if res.Attempted == 0 {
		t.Fatal("no operations attempted")
	}
}

// TestNamesMatchBenchmarkJSON checks that the metrics the benchmark
// emits are the ones BENCHMARK.json declares, with the same units and
// directions, and that its workloads are the ones declared.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q in BENCHMARK.json is not run by the benchmark", w.Name)
		}
	}
}

// TestFaultMachineNeverRepeats checks that the seeded schedule never
// hogs the previous fault's machine, reaches every machine, and draws
// the same machines for the same seed.
func TestFaultMachineNeverRepeats(t *testing.T) {
	ids := []core.MachineID{"m0", "m1", "m2"}
	draw := func(seed int64) []core.MachineID {
		f := newFaults(faultTiming{GapMin: time.Second, GapMax: 2 * time.Second}, seed, nil, ids, nil)
		var got []core.MachineID
		for i := 0; i < 100; i++ {
			got = append(got, f.pick())
		}
		return got
	}
	got := draw(3)
	seen := map[core.MachineID]bool{}
	for i, m := range got {
		if i > 0 && m == got[i-1] {
			t.Fatalf("fault %d hogs %s again", i, m)
		}
		seen[m] = true
	}
	if len(seen) != len(ids) {
		t.Errorf("faults reached %d of %d machines", len(seen), len(ids))
	}
	again := draw(3)
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("fault %d: %s, then %s with the same seed", i, got[i], again[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
	if !tailResolved(1000, 0.99) || tailResolved(999, 0.99) {
		t.Error("p99 needs 1000 samples for ten beyond it")
	}
}
