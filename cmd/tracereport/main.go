// Command tracereport aggregates a JSONL span trace (written by
// cmd/glimpse -trace, cmd/experiments -trace, or cmd/fleet -trace) into a
// per-stage time breakdown: span counts, total/self/mean/min/max durations,
// and each stage's share of traced self time, plus point-event counts.
//
// Usage:
//
//	tracereport trace.jsonl
//	tracereport < trace.jsonl
//	tracereport -merge [-job j1] glimpsed.jsonl ep0.jsonl ep1.jsonl
//
// -merge assembles multiple per-process trace files (glimpsed plus every
// measured endpoint) into one tree per TraceID using the propagated
// SpanID/ParentID edges — never timestamps, since the processes' clocks
// share no origin. For each trace it prints the span tree, a per-stage
// rollup with bucket-interpolated p50/p90/p99 latencies, and the critical
// path (queue wait → job → step → measure → rpc_measure) that bounded the
// job's latency. -job keeps only that job's trace. Each file's process
// label is its basename without extension.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/neuralcompile/glimpse/internal/metrics"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
)

func main() {
	merge := flag.Bool("merge", false, "assemble multiple per-process trace files into cross-process trace trees")
	job := flag.String("job", "", "with -merge: report only the trace for this job ID")
	flag.Parse()

	if *merge {
		if err := runMerge(flag.Args(), *job, os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	var in io.Reader = os.Stdin
	name := "stdin"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
		name = flag.Arg(0)
	}
	table, err := report(in, name)
	if err != nil {
		fail(err)
	}
	fmt.Print(table.String())
}

// runMerge reads each file as one process's trace log and reports every
// assembled trace (or just the -job one).
func runMerge(paths []string, job string, out io.Writer) error {
	if len(paths) == 0 {
		return fmt.Errorf("-merge needs at least one trace file")
	}
	var procs []telemetry.ProcTrace
	for _, path := range paths {
		events, err := readTrace(path)
		if err != nil {
			return err
		}
		base := filepath.Base(path)
		procs = append(procs, telemetry.ProcTrace{
			Proc:   strings.TrimSuffix(base, filepath.Ext(base)),
			Events: events,
		})
	}
	traces := telemetry.MergeTraces(procs)
	if job != "" {
		kept := traces[:0]
		for _, t := range traces {
			if t.JobID == job {
				kept = append(kept, t)
			}
		}
		traces = kept
	}
	if len(traces) == 0 {
		return fmt.Errorf("no cross-process traces found (were the files written with -trace?)")
	}
	var b strings.Builder
	for i, t := range traces {
		if i > 0 {
			b.WriteByte('\n')
		}
		printMerged(&b, t)
	}
	_, err := io.WriteString(out, b.String())
	return err
}

func readTrace(path string) ([]telemetry.SpanEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []telemetry.SpanEvent
	rerr := tlog.ReadJSONLines(f, func(line []byte) error {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		events = append(events, ev)
		return nil
	})
	if rerr != nil {
		return nil, fmt.Errorf("%s: %w", path, rerr)
	}
	return events, nil
}

func printMerged(out *strings.Builder, t *telemetry.MergedTrace) {
	head := fmt.Sprintf("Trace %s", t.TraceID)
	if t.JobID != "" {
		head += fmt.Sprintf(" (job %s", t.JobID)
		if t.Tenant != "" {
			head += fmt.Sprintf(", tenant %s", t.Tenant)
		}
		head += ")"
	}
	fmt.Fprintf(out, "%s — procs: %s; %d spans, %d events\n",
		head, strings.Join(t.Procs, ", "), t.Spans, t.Events)
	for _, r := range t.Roots {
		printSpanTree(out, r, 1)
	}

	// Per-stage rollup. Percentiles come from a latency histogram per
	// stage — the same bucket-interpolated estimator (HistogramSnap.
	// Quantile) the service uses on /metricsz, not a re-implementation.
	reg := telemetry.NewRegistry()
	var collect func(n *telemetry.MergedSpan)
	collect = func(n *telemetry.MergedSpan) {
		if n.Event.Kind == "span" {
			reg.Histogram(n.Event.Stage, telemetry.LatencyBoundsMS()).
				Observe(float64(n.Event.DurUS) / 1e3)
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	for _, r := range t.Roots {
		collect(r)
	}
	snaps := map[string]telemetry.HistogramSnap{}
	for _, h := range reg.Snapshot().Histograms {
		snaps[h.Name] = h
	}
	table := metrics.NewTable("Stage rollup",
		"stage", "spans", "events", "total ms", "self ms", "max ms", "p50", "p90", "p99")
	for _, st := range t.StageRollup() {
		h := snaps[st.Stage]
		table.AddRowf(st.Stage, st.Spans, st.Events,
			fmt.Sprintf("%.3f", float64(st.TotalUS)/1e3),
			fmt.Sprintf("%.3f", float64(st.SelfUS)/1e3),
			fmt.Sprintf("%.3f", float64(st.MaxUS)/1e3),
			fmt.Sprintf("%.3f", h.P50),
			fmt.Sprintf("%.3f", h.P90),
			fmt.Sprintf("%.3f", h.P99))
	}
	out.WriteString(table.String())

	if path := t.CriticalPath(); len(path) > 0 {
		fmt.Fprintln(out, "Critical path:")
		for _, n := range path {
			fmt.Fprintf(out, "  %-16s [%s] %10.3f ms (self %.3f ms)\n",
				n.Event.Stage, n.Proc, float64(n.Event.DurUS)/1e3, float64(n.SelfUS())/1e3)
		}
	}
}

func printSpanTree(out *strings.Builder, n *telemetry.MergedSpan, depth int) {
	indent := strings.Repeat("  ", depth)
	mark := ""
	if n.Orphan {
		mark = " (orphan)"
	}
	if n.Event.Kind == "span" {
		fmt.Fprintf(out, "%s%-*s [%s] %10.3f ms%s\n",
			indent, 28-2*depth, n.Event.Stage, n.Proc, float64(n.Event.DurUS)/1e3, mark)
	} else {
		detail := n.Event.Stage
		if ev, ok := n.Event.Attrs["event"].(string); ok {
			detail = ev
		}
		fmt.Fprintf(out, "%s· %s [%s]%s\n", indent, detail, n.Proc, mark)
	}
	for _, c := range n.Children {
		printSpanTree(out, c, depth+1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereport:", err)
	os.Exit(1)
}

// stageAgg accumulates one stage's spans and events.
type stageAgg struct {
	spans    int
	events   int
	totalUS  int64
	selfUS   int64 // total minus the time in child spans
	minUS    int64
	maxUS    int64
	hasSpans bool
}

// untracedID stands in for the empty TraceID of spans opened outside any
// distributed trace (a glimpse or fleet run) when the single-trace report
// rebuilds the span tree; TraceIDs are "job-" plus a job ID, so it cannot
// collide with one.
const untracedID = "untraced"

// aggregate folds a JSONL trace into per-stage aggregates. It tolerates a
// truncated final line (a tracer killed mid-write) like every JSONL reader
// in this repository. Self time comes from the span tree the
// SpanID/ParentID edges describe, assembled and rolled up by the same
// telemetry.MergeTraces code -merge uses, so nested stages are not
// counted twice.
func aggregate(r io.Reader) (map[string]*stageAgg, error) {
	aggs := map[string]*stageAgg{}
	var events []telemetry.SpanEvent
	err := tlog.ReadJSONLines(r, func(line []byte) error {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		if ev.Stage == "" {
			return fmt.Errorf("trace record %d has no stage", ev.Seq)
		}
		if ev.TraceID == "" {
			ev.TraceID = untracedID
		}
		events = append(events, ev)
		a := aggs[ev.Stage]
		if a == nil {
			a = &stageAgg{}
			aggs[ev.Stage] = a
		}
		switch ev.Kind {
		case "event":
			a.events++
		default: // "span"
			a.spans++
			a.totalUS += ev.DurUS
			if !a.hasSpans || ev.DurUS < a.minUS {
				a.minUS = ev.DurUS
			}
			if !a.hasSpans || ev.DurUS > a.maxUS {
				a.maxUS = ev.DurUS
			}
			a.hasSpans = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("trace is empty")
	}
	for _, t := range telemetry.MergeTraces([]telemetry.ProcTrace{{Events: events}}) {
		for _, st := range t.StageRollup() {
			aggs[st.Stage].selfUS += st.SelfUS
		}
	}
	return aggs, nil
}

// report renders the aggregate breakdown, stages sorted by total time
// (ties by name so output is reproducible). A stage's share is its self
// time over the trace's total self time, so shares sum to 100% however
// deeply the stages nest.
func report(r io.Reader, name string) (*metrics.Table, error) {
	aggs, err := aggregate(r)
	if err != nil {
		return nil, err
	}
	stages := make([]string, 0, len(aggs))
	grand := int64(0)
	for s, a := range aggs {
		stages = append(stages, s)
		grand += a.selfUS
	}
	sort.Slice(stages, func(i, j int) bool {
		ti, tj := aggs[stages[i]].totalUS, aggs[stages[j]].totalUS
		if ti != tj {
			return ti > tj
		}
		return stages[i] < stages[j]
	})

	table := metrics.NewTable(
		fmt.Sprintf("Trace breakdown: %s", name),
		"stage", "spans", "events", "total ms", "self ms", "mean ms", "min ms", "max ms", "share")
	for _, s := range stages {
		a := aggs[s]
		mean := 0.0
		if a.spans > 0 {
			mean = float64(a.totalUS) / float64(a.spans) / 1e3
		}
		share := 0.0
		if grand > 0 {
			share = 100 * float64(a.selfUS) / float64(grand)
		}
		table.AddRowf(s, a.spans, a.events,
			fmt.Sprintf("%.3f", float64(a.totalUS)/1e3),
			fmt.Sprintf("%.3f", float64(a.selfUS)/1e3),
			fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.3f", float64(a.minUS)/1e3),
			fmt.Sprintf("%.3f", float64(a.maxUS)/1e3),
			fmt.Sprintf("%.1f%%", share))
	}
	return table, nil
}
