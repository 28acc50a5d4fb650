package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/parallel"
)

// A shared host's speed drifts from minute to minute with what else it
// runs: on a 2-vCPU guest the same pass over the same tasks took from
// 4.3 s to 6.7 s within the hour, at 1–4% CPU steal, and process CPU
// time moved with the wall clock, so neither holds still. A pass's task
// times are therefore stated at the nominal speed of a fixed reference
// computation, timed between the tasks:
//
//	time at reference speed = measured time × refNominalMS / median reference time
//
// The reference is benchmark code and calls nothing in the program, so
// a change to the program moves the measured time only. It mixes what
// the tuner spends its CPU on (Matérn kernel rows, int64-keyed map
// lookups, reads from an L2-sized table) and runs on two goroutines, as
// the annealer's chains do on two workers. It allocates only its
// two-float result, so it leaves almost no garbage for the program's next
// timing.

// refNominalMS is the reference's median time on a quiet 2-vCPU Xeon
// guest, the machine the benchmark's figures in README.md come from.
const refNominalMS = 18.0

const (
	refWorkers = 2
	refPoints  = 192     // Matérn row length
	refRounds  = 24      // passes over all point pairs per worker
	refTable   = 1 << 15 // float64 entries: 256 KiB
	refKeys    = 1 << 12
)

// refData is the reference's read-only input, built once.
var refData = sync.OnceValue(func() *refInput {
	in := &refInput{table: make([]float64, refTable), lookup: make(map[int64]float64, refKeys)}
	for i := range in.xs {
		in.xs[i] = float64((i*7919)%refPoints) / 48
	}
	for i := range in.table {
		in.table[i] = float64(i%1021) / 1021
	}
	for k := int64(0); k < refKeys; k++ {
		in.lookup[k*2654435761] = float64(k) / refKeys
	}
	return in
})

type refInput struct {
	xs     [refPoints]float64
	table  []float64
	lookup map[int64]float64
}

// refMS runs the reference once and returns its wall time and result.
func refMS() (float64, float64) {
	in := refData()
	t0 := time.Now()
	out := parallel.Map(refWorkers, refWorkers, func(w int) float64 { return refWork(in, w) })
	return ms(time.Since(t0)), sum(out)
}

func refWork(in *refInput, w int) float64 {
	s := 0.0
	h := uint64(w + 1)
	for round := 0; round < refRounds; round++ {
		for i := range in.xs {
			for j := range in.xs {
				d := math.Abs(in.xs[i]-in.xs[j]) * math.Sqrt(5)
				s += (1 + d + d*d/3) * math.Exp(-d)
			}
			h = h*6364136223846793005 + 1442695040888963407
			s += in.table[h>>49] + in.lookup[int64(h>>52)*2654435761]
		}
	}
	return s
}

// speedMeter gathers reference times taken between the timings of one
// stretch of work.
type speedMeter struct {
	refs []float64
	sink float64 // keeps the reference's results alive
}

// sample times the reference once, after a garbage collection, so that
// the collector's background work for the program's garbage does not
// run alongside it. The collection happens outside every timed figure;
// it also starts each timed task on a collected heap.
func (m *speedMeter) sample() {
	runtime.GC()
	d, s := refMS()
	m.refs = append(m.refs, d)
	m.sink += s
}

// scale converts a time measured during the stretch to reference speed.
// The median shrugs off a sample the host happened to interrupt.
func (m *speedMeter) scale() float64 { return refNominalMS / median(m.refs) }
