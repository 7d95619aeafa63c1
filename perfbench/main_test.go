package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, dur: time.Second, smoke: true, tmpDir: t.TempDir()}
}

// TestEveryMetricEmitted runs each workload at smoke size, untraced and
// traced, and checks that every metric BENCHMARK.json names comes out
// finite, with its declared unit, and that the output checks pass.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(allWorkloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := measure(w, smokeConfig(t, 7), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				case got.Unit != unit || unit == "":
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, name, got.Unit, unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s = %v", w.name, name, got.Value)
				}
			}
			if traced && !(res.Metrics["runtime.cpu_share"].Value > 0) {
				t.Errorf("%s: no CPU samples attributed to the runtime", w.name)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// wallMetrics are the end-to-end metrics read off the wall clock; the
// rest of a virtual-clock workload's metrics are simulated durations.
var wallMetrics = map[string]bool{"setup_s": true, "sim_jobs_per_s": true, "cycles_per_s": true}

// TestSeededSimRunsAgree runs each virtual-clock workload twice on one
// seed and requires every simulated end-to-end metric to agree within
// its bound. They need not be bit-identical: the virtual clock still
// orders same-instant events nondeterministically.
func TestSeededSimRunsAgree(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range []string{"swim-paper", "ladder-tight-ram"} {
		w, _ := findWorkload(name)
		cfg := smokeConfig(t, 3)
		cfg.dur = time.Nanosecond // exactly one iteration
		a, err := w.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.EndToEnd {
			if wallMetrics[m.Name] {
				continue
			}
			x, y := a.e2e[m.Name].Value, b.e2e[m.Name].Value
			if d := math.Abs(y-x) / math.Abs(x); !(d <= m.Bound) {
				t.Errorf("%s %s: %v then %v, %.3f apart, bound %.3f", name, m.Name, x, y, d, m.Bound)
			}
		}
	}
}
