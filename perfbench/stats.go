package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// geomean is the geometric mean of positive values; 0 if any is not.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// sameBits reports whether two floats are the identical value: the
// simulator and the cache are deterministic, so a re-read must match
// exactly, not within a tolerance.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// batchStats is what timedMeasurer records across every batch it
// serves; sessions measure concurrently on serve-mixed.
type batchStats struct {
	mu       sync.Mutex
	ms       []float64
	measured int
	invalid  int
}

func (b *batchStats) add(d time.Duration, res []gpusim.Result) {
	bad := 0
	for _, r := range res {
		if !r.Valid {
			bad++
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ms = append(b.ms, ms(d))
	b.measured += len(res)
	b.invalid += bad
}

// record sets the measure.* layer metrics.
func (b *batchStats) record(r *run) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r.set("measure.batch_ms_p50", quantile(b.ms, 0.5))
	r.set("measure.batch_ms_p90", quantile(b.ms, 0.9))
	r.set("measure.batches", float64(len(b.ms)))
	if b.measured > 0 {
		r.set("measure.invalid_ratio", float64(b.invalid)/float64(b.measured))
	}
}

// timedMeasurer times every MeasureBatch of the measurer it wraps. It
// forwards trace binding, so a wrapped Remote still joins the caller's
// distributed trace.
type timedMeasurer struct {
	inner measure.Measurer
	stats *batchStats
}

func (t timedMeasurer) MeasureBatch(task workload.Task, sp *space.Space, idxs []int64) ([]gpusim.Result, error) {
	t0 := time.Now()
	res, err := t.inner.MeasureBatch(task, sp, idxs)
	t.stats.add(time.Since(t0), res)
	return res, err
}

func (t timedMeasurer) DeviceName() string { return t.inner.DeviceName() }

func (t timedMeasurer) BindTrace(sc telemetry.SpanContext) { measure.BindTrace(t.inner, sc) }
