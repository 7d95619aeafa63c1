// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed wall time and prints, as its last
// line, a JSON object with the correctness verdict, the operation
// counts and the metrics:
//
//	perfbench --workload swim-paper --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (what a user of
// the file system sees). With --trace 1 the run measures the workload
// twice, untraced and then traced (CPU profile, per-call timers, Stats
// samplers), and reports the per-layer metrics of the traced pass plus
// the tracing overhead between the two. See README.md for the
// workloads, the metrics and the layer → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one measured pass of a workload produced.
type outcome struct {
	e2e   metricSet // end-to-end metrics
	layer metricSet // per-layer metrics (complete only on a traced pass)
	// attempted/failed count user operations (jobs, or file operations
	// of a job cycle); failures names every failed output check.
	attempted, failed int64
	failures          []string
	// ops is the operation count per-op process metrics divide by, and
	// rate the throughput the tracing overhead is computed from.
	ops, rate float64
	mu        sync.Mutex // guards attempted, failed and failures
}

func newOutcome() *outcome { return &outcome{e2e: metricSet{}, layer: metricSet{}} }

// attempt counts one user operation.
func (o *outcome) attempt() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

// fail records a failed operation or output check (the first few are
// kept verbatim).
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runConfig is what a workload receives: the seed its inputs derive
// from, how long to measure, whether to trace, and the size preset.
type runConfig struct {
	seed   int64
	dur    time.Duration
	traced bool
	smoke  bool
	tmpDir string
}

type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var allWorkloads = []workload{
	{"swim-paper", runSwimPaper},
	{"ladder-tight-ram", runLadderTightRAM},
	{"job-cycle-tcp", runJobCycleTCP},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: swim-paper, ladder-tight-ram or job-cycle-tcp")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	secs := flag.Int("seconds", 20, "wall seconds each measured pass runs for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit of the code under test, for the environment stamp")
	source := flag.String("source", "unknown", "hash of the source tree under test, for the environment stamp")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*secs) * time.Second, tmpDir: tmp}
	res, err := measure(w, cfg, *trace == 1)
	os.RemoveAll(tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	stamp, _ := json.Marshal(map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *secs, "trace": *trace,
		"commit": *commit, "source": *source, "go": runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"clock": clockKind(w.name),
	})
	fmt.Printf("env %s\n", stamp)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// clockKind names the clock a workload's cluster runs on, with its
// time scale (simulated seconds per wall second).
func clockKind(workload string) map[string]any {
	if workload == "job-cycle-tcp" {
		return map[string]any{"kind": "scaled-real", "scale": tcpTimeScale}
	}
	return map[string]any{"kind": "virtual", "scale": nil}
}

// unsteadyUserMetrics are user-facing metrics that every workload
// computes but that the benchmark reports with the per-layer set: across
// seeds they do not repeat within a tenth, or they sit on a modeled
// constant and read the same on every run (README.md has the figures).
var unsteadyUserMetrics = map[string]bool{
	"task_p50_s":         true,
	"task_p99_s":         true,
	"write_p99_ms":       true,
	"hot_read_p99_ms":    true,
	"time_to_hot_p99_ms": true,
}

// measure runs w once untraced; with traced set it then runs a traced
// pass under a CPU profile and reports that pass's per-layer metrics
// and the overhead against the untraced pass.
func measure(w workload, cfg runConfig, traced bool) (*result, error) {
	base, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out := base
	metrics := metricSet{}
	for n, m := range base.e2e {
		if !unsteadyUserMetrics[n] {
			metrics[n] = m
		}
	}
	if traced {
		cfg.traced = true
		tr, err := tracedPass(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		tr.layer.set("trace.overhead_frac", ratio(base.rate, tr.rate)-1, "ratio")
		tr.attempted += base.attempted
		tr.failed += base.failed
		tr.failures = append(base.failures, tr.failures...)
		out, metrics = tr, tr.layer
		for n := range unsteadyUserMetrics {
			metrics[n] = tr.e2e[n]
		}
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	for n, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s is %v", n, m.Value)
			metrics[n] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

// tracedPass runs w under a CPU profile and a heap sampler and adds the
// per-module CPU shares and the process-memory metrics.
func tracedPass(w workload, cfg runConfig) (*outcome, error) {
	profPath := filepath.Join(cfg.tmpDir, "cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer pf.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	peak := before.HeapAlloc
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	o, err := w.run(cfg)
	pprof.StopCPUProfile()
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if err := pf.Close(); err != nil {
		return nil, err
	}

	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, m := range cpuModules {
		o.layer.set(m.name+".cpu_share", shares[m.name], "ratio")
	}
	o.layer.set("proc.alloc_bytes_per_op", ratio(float64(after.TotalAlloc-before.TotalAlloc), o.ops), "B")
	o.layer.set("proc.gc_cycles_per_op", ratio(float64(after.NumGC-before.NumGC), o.ops), "count")
	o.layer.set("proc.peak_heap_mb", float64(peak)/(1<<20), "MiB")
	return o, nil
}
