package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// buildTrace writes a small deterministic trace: two anneal spans (2ms,
// 4ms), one measure span (1ms), and one measure event.
func buildTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	clk := telemetry.NewFakeClock(time.Unix(0, 0))
	tr := telemetry.NewTracer(&buf, clk)

	sp := tr.Start(telemetry.StageAnneal)
	clk.Advance(2 * time.Millisecond)
	sp.End()

	sp = tr.Start(telemetry.StageAnneal)
	clk.Advance(4 * time.Millisecond)
	sp.End()

	sp = tr.Start(telemetry.StageMeasure)
	clk.Advance(time.Millisecond)
	sp.End()

	tr.Event(telemetry.StageMeasure, map[string]any{"event": "retry"})
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAggregate(t *testing.T) {
	aggs, err := aggregate(bytes.NewReader(buildTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	an := aggs[telemetry.StageAnneal]
	if an == nil || an.spans != 2 || an.events != 0 {
		t.Fatalf("anneal agg = %+v", an)
	}
	if an.totalUS != 6000 || an.minUS != 2000 || an.maxUS != 4000 {
		t.Fatalf("anneal timing = %+v", an)
	}
	me := aggs[telemetry.StageMeasure]
	if me == nil || me.spans != 1 || me.events != 1 || me.totalUS != 1000 {
		t.Fatalf("measure agg = %+v", me)
	}
}

func TestReportRendersStagesByTotalTime(t *testing.T) {
	table, err := report(bytes.NewReader(buildTrace(t)), "test")
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"anneal", "measure", "85.7%", "14.3%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// anneal (6ms) must come before measure (1ms).
	if strings.Index(out, "anneal") > strings.Index(out, "measure") {
		t.Fatalf("stages not sorted by total time:\n%s", out)
	}
}

func TestAggregateToleratesTruncatedTail(t *testing.T) {
	trace := buildTrace(t)
	// Simulate a tracer killed mid-append: chop the final line in half.
	cut := trace[:len(trace)-8]
	aggs, err := aggregate(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("truncated tail rejected: %v", err)
	}
	if aggs[telemetry.StageAnneal].spans != 2 {
		t.Fatalf("lost full spans to a torn tail: %+v", aggs)
	}
}

func TestAggregateRejectsEmptyAndGarbage(t *testing.T) {
	if _, err := aggregate(strings.NewReader("")); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := aggregate(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// buildNestedTrace writes two step trees: an untraced one as a glimpse
// run emits it (step 10ms holding anneal 6ms and measure 1ms) and one
// inside a job's distributed trace (step 4ms holding anneal 2ms).
func buildNestedTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	clk := telemetry.NewFakeClock(time.Unix(0, 0))
	tr := telemetry.NewTracer(&buf, clk)

	step, sc := tr.StartSpan(telemetry.SpanContext{}, telemetry.StageStep)
	an, _ := tr.StartSpan(sc, telemetry.StageAnneal)
	clk.Advance(6 * time.Millisecond)
	an.End()
	me, _ := tr.StartSpan(sc, telemetry.StageMeasure)
	clk.Advance(time.Millisecond)
	me.End()
	clk.Advance(3 * time.Millisecond)
	step.End()

	job := telemetry.SpanContext{TraceID: "job-j1", JobID: "j1"}
	step, sc = tr.StartSpan(job, telemetry.StageStep)
	an, _ = tr.StartSpan(sc, telemetry.StageAnneal)
	clk.Advance(2 * time.Millisecond)
	an.End()
	clk.Advance(2 * time.Millisecond)
	step.End()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReportSharesNestedStagesBySelfTime pins the share column to self
// time: nested stages do not double-count (inclusive shares would split a
// 23ms sum of span times that holds only 14ms of work), and the shares add
// up to 100%.
func TestReportSharesNestedStagesBySelfTime(t *testing.T) {
	aggs, err := aggregate(bytes.NewReader(buildNestedTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	for stage, want := range map[string][2]int64{
		telemetry.StageStep:    {14000, 5000},
		telemetry.StageAnneal:  {8000, 8000},
		telemetry.StageMeasure: {1000, 1000},
	} {
		a := aggs[stage]
		if a == nil || a.totalUS != want[0] || a.selfUS != want[1] {
			t.Fatalf("%s agg = %+v want total %d self %d", stage, a, want[0], want[1])
		}
	}

	table, err := report(bytes.NewReader(buildNestedTrace(t)), "nested")
	if err != nil {
		t.Fatal(err)
	}
	out := table.String()
	for _, want := range []string{"57.1%", "35.7%", "7.1%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing share %q:\n%s", want, out)
		}
	}
	// Stages still sort by total time: step (14ms) before anneal (8ms).
	if strings.Index(out, "step") > strings.Index(out, "anneal") {
		t.Fatalf("stages not sorted by total time:\n%s", out)
	}
}
