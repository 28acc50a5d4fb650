package main

import (
	"testing"

	"github.com/neuralcompile/glimpse/internal/telemetry"
)

func sp(id, parent, stage string, start, dur int64) telemetry.SpanEvent {
	return telemetry.SpanEvent{Kind: "span", SpanID: id, ParentID: parent, Stage: stage, StartUS: start, DurUS: dur}
}

func selfByID(t *testing.T, evs []telemetry.SpanEvent) map[string]selfSpan {
	t.Helper()
	out := map[string]selfSpan{}
	for _, s := range attribute(evs) {
		out[s.SpanID] = s
	}
	return out
}

func TestAttributeNested(t *testing.T) {
	// step [0,100) ⊃ anneal [10,60) ⊃ nothing; measure [70,90).
	got := selfByID(t, []telemetry.SpanEvent{
		sp("2", "1", "anneal", 10, 50),
		sp("3", "1", "measure", 70, 20),
		sp("1", "", "step", 0, 100),
	})
	if got["1"].SelfUS != 30 || got["2"].SelfUS != 50 || got["3"].SelfUS != 20 {
		t.Fatalf("self = %d/%d/%d, want 30/50/20", got["1"].SelfUS, got["2"].SelfUS, got["3"].SelfUS)
	}
	if got["1"].SubtreeSelfUS != 100 {
		t.Fatalf("subtree self %d, want the step's 100µs", got["1"].SubtreeSelfUS)
	}
}

func TestAttributeOverlappingParallelChildren(t *testing.T) {
	// Two parallel children cover [10,50) ∪ [30,80) = 70µs of the
	// parent; summing their durations would claim 90µs.
	got := selfByID(t, []telemetry.SpanEvent{
		sp("1", "", "job", 0, 100),
		sp("2", "1", "step", 10, 40),
		sp("3", "1", "step", 30, 50),
	})
	if got["1"].SelfUS != 30 {
		t.Fatalf("parent self %d, want 30", got["1"].SelfUS)
	}
}

func TestAttributeDeepNestingSubtractsOnlyDirectChildren(t *testing.T) {
	got := selfByID(t, []telemetry.SpanEvent{
		sp("1", "", "job", 0, 100),
		sp("2", "1", "step", 0, 80),
		sp("3", "2", "anneal", 0, 70),
	})
	if got["1"].SelfUS != 20 || got["2"].SelfUS != 10 || got["3"].SelfUS != 70 {
		t.Fatalf("self = %d/%d/%d, want 20/10/70", got["1"].SelfUS, got["2"].SelfUS, got["3"].SelfUS)
	}
}

func TestAttributeOrphanIsRoot(t *testing.T) {
	// The parent "9" is not in the trace: the orphan keeps its whole
	// duration and subtracts nothing from anyone.
	got := selfByID(t, []telemetry.SpanEvent{
		sp("1", "", "step", 0, 100),
		sp("2", "9", "rpc_measure", 20, 40),
	})
	if got["1"].SelfUS != 100 || got["2"].SelfUS != 40 || got["2"].SubtreeSelfUS != 40 {
		t.Fatalf("self = %d/%d, want 100/40", got["1"].SelfUS, got["2"].SelfUS)
	}
}

func TestAttributeClipsChildToParent(t *testing.T) {
	// A child recorded by another clock may overhang its parent; only
	// the overlap is subtracted.
	got := selfByID(t, []telemetry.SpanEvent{
		sp("1", "", "measure", 100, 50),
		sp("2", "1", "rpc_measure", 90, 100),
	})
	if got["1"].SelfUS != 0 {
		t.Fatalf("parent self %d, want 0", got["1"].SelfUS)
	}
}

func TestSelfSecondsAndStageMS(t *testing.T) {
	spans := attribute([]telemetry.SpanEvent{
		sp("1", "", "step", 0, 2000),
		sp("2", "1", "anneal", 0, 1500),
		sp("3", "", "step", 3000, 1000),
	})
	if got := selfSeconds(spans, "step"); got != 0.0015 {
		t.Fatalf("step self %.6fs, want 0.0015s", got)
	}
	if got := stageMS(spans, "step", false); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("step durations %v, want [2 1]", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := quantile(xs, 0.5); got != 3 {
		t.Fatalf("p50 %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Fatalf("p90 %v, want 4.6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 %v, want 0", got)
	}
}
