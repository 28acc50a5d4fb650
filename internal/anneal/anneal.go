// Package anneal implements batched simulated annealing over discrete
// configuration indices. AutoTVM, Chameleon, and Glimpse all propose
// measurement candidates by running parallel Markov chains on a surrogate
// cost model; this package is that shared search engine.
//
// Chains are sharded across a bounded worker pool (Config.Workers). Each
// chain draws from its own RNG stream split from the caller's seed, and
// per-chain visited maps are merged in chain order, so a fixed seed yields
// byte-identical results for any worker count (and any GOMAXPROCS).
package anneal

import (
	"fmt"
	"math"
	"sort"

	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/telemetry"
)

// Problem describes a discrete maximization problem for the annealer.
// Score and Neighbor may be called from multiple goroutines concurrently
// when the annealer runs with more than one worker; both must be safe for
// concurrent use.
type Problem struct {
	// Size is the number of points in the space.
	Size int64
	// Score returns the surrogate value to maximize at index i. It must be
	// pure: the same index always yields the same score. Each chain calls
	// it at most once per distinct index and reuses the memoized score on
	// revisits, so a Score with side effects or drift would see fewer
	// calls than there are steps.
	Score func(i int64) float64
	// Neighbor proposes a move from index i. If nil, a uniform random
	// index is used (pure random-restart annealing).
	Neighbor func(i int64, g *rng.RNG) int64
}

// Config controls the annealing schedule. Non-positive fields default
// independently (see DefaultConfig for the values); a caller setting only
// Steps keeps its Steps and inherits the default Chains, and vice versa.
type Config struct {
	Chains      int     // parallel Markov chains
	Steps       int     // steps per chain
	StartTemp   float64 // initial temperature
	FinalTemp   float64 // final temperature (geometric schedule)
	InitialSeed []int64 // optional starting points (wrapped into chains)
	// Workers bounds the goroutines sharding the chains; <= 0 uses the
	// process-wide default (see internal/parallel), 1 runs serially.
	Workers int
	// Tracer records one "anneal" span per Run (nil: tracing disabled).
	// Tracing is observation only: it never touches the RNG streams, so
	// results are byte-identical with and without it.
	Tracer *telemetry.Tracer
	// Trace parents the Run span into a caller's trace (core sets the
	// current step's context). Zero roots the span; like Tracer, it is
	// identity only and never steers the search.
	Trace telemetry.SpanContext
}

// DefaultConfig mirrors AutoTVM's annealer scale, shrunk to simulator speed.
func DefaultConfig() Config {
	return Config{Chains: 64, Steps: 150, StartTemp: 1.0, FinalTemp: 0.02}
}

// withDefaults fills non-positive fields independently, preserving every
// field the caller did set.
func (cfg Config) withDefaults() Config {
	def := DefaultConfig()
	if cfg.Chains <= 0 {
		cfg.Chains = def.Chains
	}
	if cfg.Steps <= 0 {
		cfg.Steps = def.Steps
	}
	if cfg.StartTemp <= 0 {
		cfg.StartTemp = def.StartTemp
	}
	if cfg.FinalTemp <= 0 || cfg.FinalTemp > cfg.StartTemp {
		cfg.FinalTemp = cfg.StartTemp / 50
	}
	return cfg
}

// Result is a visited point with its surrogate score.
type Result struct {
	Index int64
	Score float64
}

// Run executes batched simulated annealing and returns the topK highest-
// scoring distinct indices visited across all chains, best first.
func Run(p Problem, cfg Config, topK int, g *rng.RNG) ([]Result, error) {
	if p.Size <= 0 {
		return nil, fmt.Errorf("anneal: empty space")
	}
	if p.Score == nil {
		return nil, fmt.Errorf("anneal: nil score function")
	}
	cfg = cfg.withDefaults()
	if topK <= 0 {
		topK = 1
	}
	sp, _ := cfg.Tracer.StartSpan(cfg.Trace, telemetry.StageAnneal)
	sp.SetAttr("chains", cfg.Chains)
	sp.SetAttr("steps", cfg.Steps)
	sp.SetAttr("topk", topK)
	defer sp.End()

	neighbor := p.Neighbor
	if neighbor == nil {
		neighbor = func(_ int64, g *rng.RNG) int64 { return g.Int63n(p.Size) }
	}

	cool := math.Pow(cfg.FinalTemp/cfg.StartTemp, 1/float64(cfg.Steps))

	// One salt per Run call, drawn from the parent stream before the
	// parallel region: successive calls on the same RNG explore with fresh
	// streams (Split alone keys off the static seed), while each chain's
	// trajectory stays a pure function of (salt, chain) — independent of
	// worker count and scheduling.
	chainBase := rng.New(g.Int63n(math.MaxInt64))
	// Hoist the fields the chain closure reads: capturing cfg itself would
	// capture it by reference (Config is past the compiler's 128-byte
	// by-value limit) and heap-move it on every Run.
	initialSeed, startTemp, steps := cfg.InitialSeed, cfg.StartTemp, cfg.Steps
	perChain := parallel.Map(cfg.Workers, cfg.Chains, func(c int) map[int64]float64 {
		cg := chainBase.Split(fmt.Sprintf("chain/%d", c))
		var state int64
		if c < len(initialSeed) {
			state = initialSeed[c] % p.Size
			if state < 0 {
				state += p.Size
			}
		} else {
			state = cg.Int63n(p.Size)
		}
		energy := p.Score(state)

		// visited doubles as the chain's score memo: Score is pure, so a
		// revisited index reuses its recorded score instead of paying for
		// another surrogate evaluation.
		visited := map[int64]float64{state: energy}

		temp := startTemp
		for step := 0; step < steps; step++ {
			cand := neighbor(state, cg)
			if cand >= 0 && cand < p.Size {
				s, seen := visited[cand]
				if !seen {
					s = p.Score(cand)
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
		return visited
	})

	// Deterministic reduction: merge per-chain maps in chain order.
	best := make(map[int64]float64, cfg.Chains*4)
	for _, visited := range perChain {
		for i, s := range visited {
			if old, ok := best[i]; !ok || s > old {
				best[i] = s
			}
		}
	}

	sp.SetAttr("visited", len(best))
	out := make([]Result, 0, len(best))
	for i, s := range best {
		out = append(out, Result{Index: i, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		//glint:ignore floateq -- exact tie-break in a sort comparator; an epsilon would break strict weak ordering
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Index < out[b].Index
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}
