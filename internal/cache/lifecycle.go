package cache

import (
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// HitTunerName labels the result an exact hit serves.
const HitTunerName = "glimpse (cache)"

// Lookup is the store's decision for one task on one device, taken before
// any tuning: a servable exact hit, or a miss with the donors' warm start
// (nil when no donor tuned the workload). The zero Lookup, which a nil
// store returns, is a cold miss that Record ignores.
type Lookup struct {
	Fingerprint string
	Device      string
	// Hit is the stored best as a finished result with zero measurements
	// (nil on a miss).
	Hit *tuner.Result
	// Warm is the transfer payload for a miss (nil: tune cold).
	Warm *WarmStart
}

// Lookup is the one place a task's cache decision is made. An exact entry
// is served only while its config still indexes sp; a stale one (a
// reshaped space under the same fingerprint) is a miss like any other and
// warm-starts from the k nearest donors. It records a cache_lookup span,
// and a cache_hit span for a hit, under sc. A nil store misses cold.
func (s *Store) Lookup(task workload.Task, sp *space.Space, device string, k int,
	tracer *telemetry.Tracer, sc telemetry.SpanContext) Lookup {

	if s == nil {
		return Lookup{}
	}
	l := Lookup{Fingerprint: Fingerprint(task, sp), Device: device}
	lsp, _ := tracer.StartSpan(sc, telemetry.StageCacheLookup)
	lsp.SetAttr("task", task.Name())
	e, hit := s.serve(l.Fingerprint, device, sp.Size())
	if !hit {
		l.Warm = s.WarmStart(l.Fingerprint, device, sp, k)
		donors := 0
		if l.Warm != nil {
			donors = len(l.Warm.Donors)
		}
		lsp.SetAttr("donors", donors)
	}
	lsp.SetAttr("hit", hit)
	lsp.End()
	if hit {
		hsp, _ := tracer.StartSpan(sc, telemetry.StageCacheHit)
		hsp.SetAttr("task", task.Name())
		hsp.SetAttr("gflops", e.GFLOPS)
		hsp.End()
		l.Hit = &tuner.Result{
			TunerName:  HitTunerName,
			TaskName:   task.Name(),
			BestIndex:  e.BestConfig,
			BestGFLOPS: e.GFLOPS,
			BestTimeMS: e.TimeMS,
		}
	}
	return l
}

// ApplyWarmStart hands l's warm start to t when t accepts one
// (WarmStartable) and returns the budget its session runs under: b shrunk
// by WarmBudgetFrac when warm, b itself otherwise. A cold miss, or a tuner
// that cannot take a warm start, keeps the full budget and is not warm.
func (l Lookup) ApplyWarmStart(t any, b tuner.Budget) (budget tuner.Budget, warm bool) {
	w, ok := t.(WarmStartable)
	if l.Warm == nil || !ok {
		return b, false
	}
	w.SetWarmStart(l.Warm)
	return ShrinkBudget(b, WarmBudgetFrac), true
}

// Record writes a session tuned after l back to the store, stamped with
// the model and task it was tuned for. A result without a valid best is
// not recorded; Put skips (and counts) one that does not improve on the
// stored best, and every one on a readonly store. A nil store records
// nothing.
func (s *Store) Record(l Lookup, model string, task workload.Task, sp *space.Space, res *tuner.Result) error {
	if s == nil {
		return nil
	}
	e, ok := EntryFromResult(l.Fingerprint, l.Device, res, sp)
	if !ok {
		return nil
	}
	e.Model = model
	e.TaskIndex = task.Index
	_, err := s.Put(e)
	return err
}
