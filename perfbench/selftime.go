package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// traceBuffer is the in-memory writer a traced run hands the program's
// telemetry.Tracer.
type traceBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *traceBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// spans parses every span line written so far; instant events are
// dropped.
func (b *traceBuffer) spans() ([]telemetry.SpanEvent, error) {
	b.mu.Lock()
	data := append([]byte(nil), b.buf.Bytes()...)
	b.mu.Unlock()
	var out []telemetry.SpanEvent
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace line: %w", err)
		}
		if ev.Kind == "span" {
			out = append(out, ev)
		}
	}
	return out, sc.Err()
}

// selfSpan is one span with its self time: its duration minus the part
// of its interval that its child spans cover. Children that run in
// parallel cover their union once, so self times never go negative and
// never double-count, unlike subtracting summed child durations.
type selfSpan struct {
	telemetry.SpanEvent
	SelfUS int64
	// SubtreeSelfUS sums SelfUS over the span and all its descendants.
	// It equals DurUS when the descendants partition the span.
	SubtreeSelfUS int64
}

// attribute computes self times. Parents are found by SpanID; a span
// whose parent is absent from the input (an orphan) is a root, and spans
// opened without a context (no SpanID) can parent nothing.
func attribute(evs []telemetry.SpanEvent) []selfSpan {
	out := make([]selfSpan, len(evs))
	byID := make(map[string]int, len(evs))
	for i, ev := range evs {
		out[i].SpanEvent = ev
		if ev.SpanID != "" {
			byID[ev.SpanID] = i
		}
	}
	children := make(map[int][]int, len(evs))
	var roots []int
	for i, ev := range evs {
		if p, ok := byID[ev.ParentID]; ok && ev.ParentID != "" && p != i {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	var walk func(i int) int64
	walk = func(i int) int64 {
		ev := evs[i]
		lo, hi := ev.StartUS, ev.StartUS+ev.DurUS
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(children[i]))
		subtree := int64(0)
		for _, c := range children[i] {
			subtree += walk(c)
			a, b := evs[c].StartUS, evs[c].StartUS+evs[c].DurUS
			if a < lo {
				a = lo
			}
			if b > hi {
				b = hi
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, end := int64(0), lo
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		out[i].SelfUS = ev.DurUS - covered
		out[i].SubtreeSelfUS = subtree + out[i].SelfUS
		return out[i].SubtreeSelfUS
	}
	for _, i := range roots {
		walk(i)
	}
	return out
}

// selfSeconds sums the self time of every span of a stage.
func selfSeconds(spans []selfSpan, stage string) float64 {
	us := int64(0)
	for _, s := range spans {
		if s.Stage == stage {
			us += s.SelfUS
		}
	}
	return float64(us) / 1e6
}

// stageMS lists, per span of a stage, its duration (self=false) or its
// self time (self=true) in milliseconds.
func stageMS(spans []selfSpan, stage string, self bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Stage == stage {
			v := s.DurUS
			if self {
				v = s.SelfUS
			}
			out = append(out, float64(v)/1000)
		}
	}
	return out
}

// attrSum totals an integer-valued span attribute over a stage's spans.
func attrSum(spans []selfSpan, stage, key string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Stage == stage {
			if v, ok := s.Attrs[key].(float64); ok {
				t += v
			}
		}
	}
	return t
}
