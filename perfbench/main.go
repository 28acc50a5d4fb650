// Command perfbench is the repository's end-to-end benchmark. It drives
// the tuning stack through the library's public entry points on one of
// two workloads, checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload tune-resnet18 --seed 1 --seconds 30 --trace 0
//
// run.sh builds this package from the checkout and runs it from the
// repository root, where it reads BENCHMARK.json for the metric names and
// units. With --trace 0 the result carries the end-to-end metrics of an
// untraced run; with --trace 1 it carries the per-layer metrics of a
// traced run. README.md in this directory documents every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/neuralcompile/glimpse/internal/parallel"
)

// spec is the part of BENCHMARK.json this program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// run is one benchmark invocation: its inputs, the metrics it gathers
// and the tallies of the result line.
type run struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // scratch directory inside the checkout, removed at exit

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // output checks that failed
}

var workloads = map[string]func(*run) error{
	"tune-resnet18": runTune,
	"serve-mixed":   runServe,
}

func main() {
	name := flag.String("workload", "", "workload: tune-resnet18 | serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of tune-resnet18's measured phase; serve-mixed runs fixed work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int) error {
	work, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	sp, err := readSpec(name)
	if err != nil {
		return err
	}
	// One process sized to the machine, like `glimpse -workers $(nproc)`.
	parallel.SetDefaultWorkers(runtime.NumCPU())

	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	r := &run{seed: seed, seconds: seconds, trace: trace == 1, dir: dir, metrics: map[string]float64{}}
	if err := work(r); err != nil {
		return err
	}
	if r.trace {
		if r.attempted > 0 {
			r.set("run.error_ratio", float64(r.failed)/float64(r.attempted))
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		r.set("runtime.peak_rss_mb", rss)
	}
	list := sp.EndToEnd
	if r.trace {
		list = sp.PerLayer
	}
	out, err := r.result(list)
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	fmt.Println(string(out))
	if len(r.problems) > 0 {
		return fmt.Errorf("%d output check(s) failed", len(r.problems))
	}
	return nil
}

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

func readSpec(workload string) (*spec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse %s: %w", specFile, err)
	}
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return &sp, nil
		}
	}
	return nil, fmt.Errorf("workload %q is not in %s", workload, specFile)
}

// result renders the result line. Every metric in list is printed; a
// per-layer metric the workload does not exercise reads 0, while a
// missing end-to-end metric or a gathered metric absent from list is a
// benchmark bug.
func (r *run) result(list []metricSpec) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	listed := map[string]bool{}
	out := map[string]value{}
	for _, m := range list {
		listed[m.Name] = true
		v, ok := r.metrics[m.Name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	var stray []string
	for name := range r.metrics {
		if !listed[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics not declared in the benchmark definition: %s", strings.Join(stray, ", "))
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
}

// set records a metric; the last value set wins.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

// check records a failed output check without stopping the run.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setups runs a workload's set-up n times on an untraced run, whose
// setup_s is their median, and once on a traced run. Every repetition
// but the last is torn down by the caller-supplied set-up itself, so the
// workload continues with the last one.
func (r *run) setups(n int, setup func(last bool) error) error {
	if r.trace {
		n = 1
	}
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	if !r.trace {
		r.set("setup_s", median(times))
	}
	return nil
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}

// memDelta tracks allocation and GC totals across a measured phase.
type memDelta struct{ alloc, gc uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC)}
}

// recordMem sets runtime.alloc_mb and runtime.gc_cycles from since to now.
func (r *run) recordMem(since memDelta) {
	now := memNow()
	r.set("runtime.alloc_mb", float64(now.alloc-since.alloc)/(1<<20))
	r.set("runtime.gc_cycles", float64(now.gc-since.gc))
}
