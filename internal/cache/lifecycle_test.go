package cache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
)

// warmSink accepts a warm start, as core.Glimpse does.
type warmSink struct{ got *WarmStart }

func (w *warmSink) SetWarmStart(ws *WarmStart) { w.got = ws }

// TestLookupDecisions walks each cache decision through Lookup and
// ApplyWarmStart: the budget a session gets, whether it is warm, and
// whether it is served without tuning.
func TestLookupDecisions(t *testing.T) {
	task, sp := testTask(t)
	fp := Fingerprint(task, sp)
	full := tuner.Budget{MaxMeasurements: 48, Patience: 4}
	donor := testEntry(t, fp, "rtx-2080-ti", 3, 800)
	donor.Samples = []Sample{{Config: 3, GFLOPS: 800}}

	for _, tc := range []struct {
		name     string
		entries  []Entry // stored before the lookup
		nilStore bool
		tuner    any
		hit      bool
		warm     bool
		budget   int
	}{
		{name: "nil store", nilStore: true, tuner: &warmSink{}, budget: 48},
		{name: "cold miss", tuner: &warmSink{}, budget: 48},
		{name: "exact hit", entries: []Entry{testEntry(t, fp, "titan-xp", 5, 900), donor}, tuner: &warmSink{}, hit: true},
		{name: "stale exact entry", entries: []Entry{testEntry(t, fp, "titan-xp", sp.Size(), 900), donor},
			tuner: &warmSink{}, warm: true, budget: 34},
		{name: "donor miss", entries: []Entry{donor}, tuner: &warmSink{}, warm: true, budget: 34},
		{name: "tuner without warm start", entries: []Entry{donor}, tuner: tuner.Random{}, budget: 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s *Store
			if !tc.nilStore {
				s = NewMemory()
			}
			for _, e := range tc.entries {
				if _, err := s.Put(e); err != nil {
					t.Fatal(err)
				}
			}
			l := s.Lookup(task, sp, "titan-xp", 3, nil, telemetry.SpanContext{})
			if got := l.Hit != nil; got != tc.hit {
				t.Fatalf("hit = %v, want %v", got, tc.hit)
			}
			if !tc.nilStore && (s.Stats().Hits == 1) != tc.hit {
				t.Fatalf("stats = %+v, want hit %v", s.Stats(), tc.hit)
			}
			if tc.hit {
				if l.Hit.Measurements != 0 || l.Hit.BestIndex != 5 || l.Hit.BestGFLOPS != 900 ||
					l.Hit.TunerName != HitTunerName || l.Hit.TaskName != task.Name() {
					t.Fatalf("hit result = %+v", l.Hit)
				}
				return
			}
			b, warm := l.ApplyWarmStart(tc.tuner, full)
			if warm != tc.warm || b.MaxMeasurements != tc.budget || b.Patience != full.Patience {
				t.Fatalf("ApplyWarmStart = (%+v, %v), want budget %d warm %v", b, warm, tc.budget, tc.warm)
			}
			if ws, ok := tc.tuner.(*warmSink); ok && (ws.got != nil) != tc.warm {
				t.Fatalf("tuner got warm start %+v, want warm %v", ws.got, tc.warm)
			}
			if tc.warm && (l.Warm.Donors[0] != "rtx-2080-ti" || l.Warm.Seeds[0] != 3) {
				t.Fatalf("warm start = %+v", l.Warm)
			}
		})
	}
}

// TestLookupSpans: the lookup and hit spans parent under the caller's
// span context.
func TestLookupSpans(t *testing.T) {
	task, sp := testTask(t)
	s := NewMemory()
	if _, err := s.Put(testEntry(t, Fingerprint(task, sp), "titan-xp", 5, 900)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf, telemetry.NewFakeClock(time.Unix(0, 0)))
	parent, sc := tr.StartSpan(telemetry.SpanContext{TraceID: "job-1"}, telemetry.StageJob)
	if l := s.Lookup(task, sp, "titan-xp", 3, tr, sc); l.Hit == nil {
		t.Fatal("expected a hit")
	}
	parent.End()
	var stages []string
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev telemetry.SpanEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Stage == telemetry.StageJob {
			continue
		}
		if ev.ParentID != sc.SpanID || ev.TraceID != "job-1" {
			t.Fatalf("%s span not under the caller's span: %+v", ev.Stage, ev)
		}
		stages = append(stages, ev.Stage)
	}
	if len(stages) != 2 || stages[0] != telemetry.StageCacheLookup || stages[1] != telemetry.StageCacheHit {
		t.Fatalf("stages = %v", stages)
	}
}

// TestRecord: Record stamps and stores an improving result, ignores a
// nil store and a result without a best, and on a readonly store writes
// nothing and counts one skipped put.
func TestRecord(t *testing.T) {
	task, sp := testTask(t)
	res := &tuner.Result{TaskName: task.Name(), BestIndex: 7, BestGFLOPS: 1234, Measurements: 32,
		TopMeasured: []tuner.Measured{{Index: 7, GFLOPS: 1234}}}

	var none *Store
	if err := none.Record(none.Lookup(task, sp, "titan-xp", 3, nil, telemetry.SpanContext{}), "resnet-18", task, sp, res); err != nil {
		t.Fatalf("nil store: %v", err)
	}

	path := filepath.Join(t.TempDir(), "cache.jsonl")
	s := openStore(t, path)
	l := s.Lookup(task, sp, "titan-xp", 3, nil, telemetry.SpanContext{})
	if err := s.Record(l, "resnet-18", task, sp, &tuner.Result{BestIndex: -1}); err != nil || s.Len() != 0 {
		t.Fatalf("result without a best: err=%v len=%d", err, s.Len())
	}
	if err := s.Record(l, "resnet-18", task, sp, res); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(l.Fingerprint, "titan-xp")
	if !ok || e.Model != "resnet-18" || e.TaskIndex != task.Index || e.BestConfig != 7 || len(e.Samples) != 1 {
		t.Fatalf("recorded entry = %+v (found %v)", e, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := OpenReadOnly(path)
	if err != nil {
		t.Fatal(err)
	}
	better := *res
	better.BestGFLOPS = 9999
	if err := ro.Record(l, "resnet-18", task, sp, &better); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("readonly Record modified the file:\nbefore: %s\nafter: %s", before, after)
	}
	if st := ro.Stats(); st.PutSkips != 1 || st.Puts != 0 {
		t.Fatalf("readonly stats = %+v, want one skipped put", st)
	}
}
