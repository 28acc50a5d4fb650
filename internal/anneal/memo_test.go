package anneal

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"github.com/neuralcompile/glimpse/internal/rng"
)

// unmemoizedRun is Run before the per-chain score memo, kept as a serial
// reference: every step calls Score, revisits included, and the visited
// map keeps the best score seen per index. Chains run in order; Run's
// worker-count invariance makes that the same answer as any pool size.
func unmemoizedRun(p Problem, cfg Config, topK int, g *rng.RNG) []Result {
	cfg = cfg.withDefaults()
	cool := math.Pow(cfg.FinalTemp/cfg.StartTemp, 1/float64(cfg.Steps))
	chainBase := rng.New(g.Int63n(math.MaxInt64))
	best := map[int64]float64{}
	for c := 0; c < cfg.Chains; c++ {
		cg := chainBase.Split(fmt.Sprintf("chain/%d", c))
		var state int64
		if c < len(cfg.InitialSeed) {
			state = cfg.InitialSeed[c] % p.Size
			if state < 0 {
				state += p.Size
			}
		} else {
			state = cg.Int63n(p.Size)
		}
		energy := p.Score(state)
		visited := map[int64]float64{state: energy}
		temp := cfg.StartTemp
		for step := 0; step < cfg.Steps; step++ {
			cand := p.Neighbor(state, cg)
			if cand >= 0 && cand < p.Size {
				s := p.Score(cand)
				if old, ok := visited[cand]; !ok || s > old {
					visited[cand] = s
				}
				delta := s - energy
				if delta >= 0 || cg.Float64() < math.Exp(delta/temp) {
					state = cand
					energy = s
				}
			}
			temp *= cool
		}
		for i, s := range visited {
			if old, ok := best[i]; !ok || s > old {
				best[i] = s
			}
		}
	}
	out := make([]Result, 0, len(best))
	for i, s := range best {
		out = append(out, Result{Index: i, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}

// TestRunMemoMatchesUnmemoized pins the memo's contract: for a pure
// Score, memoized Run returns byte-identical results to the unmemoized
// reference at every worker count, with strictly fewer Score calls. The
// narrow neighbourhood on a small space makes revisits common.
func TestRunMemoMatchesUnmemoized(t *testing.T) {
	var calls atomic.Int64
	p := Problem{
		Size: 3000,
		Score: func(i int64) float64 {
			calls.Add(1)
			return math.Sin(float64(i)/40) + 0.3*math.Cos(float64(i)/7)
		},
		Neighbor: func(i int64, g *rng.RNG) int64 { return i + int64(g.Intn(9)) - 4 },
	}
	cfg := Config{Chains: 16, Steps: 120, StartTemp: 1, FinalTemp: 0.02,
		InitialSeed: []int64{5, -1, 2999}}
	want := unmemoizedRun(p, cfg, 40, rng.New(77))
	refCalls := calls.Swap(0)

	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Workers = workers
		got, err := Run(p, cfg, 40, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Swap(0); n >= refCalls {
			t.Fatalf("workers=%d: %d Score calls, reference made %d", workers, n, refCalls)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].Index != want[i].Index ||
				math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("workers=%d: result[%d] = %+v want %+v", workers, i, got[i], want[i])
			}
		}
	}
}
