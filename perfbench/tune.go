package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// tuneBudget is half of cmd/glimpse's per-task budget of 192, without
// its early stop (Patience 4). A pass over the 17 tasks then takes about
// 6 s instead of 30 s (the GP's cost grows faster than its row count), so
// a run repeats it and reports medians. Without the early stop every
// task spends its whole budget: with it, the steps a task takes move with
// the tuning seed by up to a fifth, and a task's time with them.
var tuneBudget = tuner.Budget{MaxMeasurements: 96}

// tunePassSeconds is about how long a pass over the 17 tasks takes on a
// 2-vCPU machine: a run makes --seconds / tunePassSeconds passes, a count
// that does not depend on how fast the machine happens to be.
const tunePassSeconds = 6

// smallToolkit trains the fixed small titan-xp toolkit that tune-resnet18
// and serve-mixed set up with: the internal/server test recipe, seed
// included, with meta-training cut to 50 epochs so that three set-ups
// fit in a run. The seed stays fixed because a toolkit's seed moves the
// tuning work of all 17 tasks together, by a third across seeds, which
// would drown any regression bound; the workload seed drives the tuning
// streams instead.
func smallToolkit() (*core.Toolkit, error) {
	refs := []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 4}, {workload.ResNet18, 5}, {workload.ResNet18, 7},
		{workload.ResNet18, 8}, {workload.ResNet18, 10}, {workload.ResNet18, 13},
		{workload.ResNet18, 15}, {workload.ResNet18, 17},
		{workload.AlexNet, 2}, {workload.AlexNet, 3}, {workload.AlexNet, 8},
		{workload.AlexNet, 11}, {workload.VGG16, 8}, {workload.VGG16, 17},
	}
	tasks := make([]workload.Task, 0, len(refs))
	for _, ref := range refs {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, task)
	}
	return core.TrainToolkit(hwspec.TitanXp, core.ToolkitConfig{
		TrainGPUs: []string{"gtx-1080", "gtx-1080-ti", "rtx-2070", "rtx-2080",
			"rtx-2080-ti", "titan-rtx", "rtx-3070", "rtx-3080"},
		PriorTasks: tasks,
		Prior: prior.TrainConfig{
			Dataset: prior.DatasetConfig{SamplesPerTask: 150, TopK: 16},
			Epochs:  200,
		},
		MetaGPUs: 2,
		Meta:     acq.MetaConfig{Epochs: 50},
	}, rng.New(1234))
}

// distinctTasks lists the three models' tasks, keeping one task per
// tuned-config cache fingerprint: tasks of the same shape tune the same
// way and share cache entries. That leaves 48 tasks.
func distinctTasks() ([]workload.Task, error) {
	seen := map[string]bool{}
	var out []workload.Task
	for _, model := range workload.Models {
		for _, task := range workload.MustTasks(model) {
			sp, err := space.ForTask(task)
			if err != nil {
				return nil, err
			}
			if fp := cache.Fingerprint(task, sp); !seen[fp] {
				seen[fp] = true
				out = append(out, task)
			}
		}
	}
	return out, nil
}

// listRun is one pass of the `glimpse` CLI loop over a task list.
type listRun struct {
	wall    time.Duration // the tasks' times summed, without the reference timings between them
	results []*tuner.Result
	tasks   []workload.Task // tasks of results, index-aligned
	failed  int
	jobMS   []float64 // NewTuneSession start → Result
	openMS  []float64 // NewTuneSession
	stepMS  []float64 // each Step
	batches batchStats
	scale   float64 // converts the pass's times to reference speed (speed.go)
}

// tuneList tunes each task in turn exactly as cmd/glimpse does: one
// session per task on one shared measurer, driven Step by Step to the
// end, with the tuning stream g.Split("tune/"+task). With measureSpeed
// it times the reference after each task, outside every timed figure.
func tuneList(tk *core.Toolkit, tasks []workload.Task, budget tuner.Budget, g *rng.RNG,
	tracer *telemetry.Tracer, measureSpeed bool) (*listRun, error) {

	local, err := measure.NewLocal(tk.TargetName)
	if err != nil {
		return nil, err
	}
	lr := &listRun{}
	m := timedMeasurer{inner: local, stats: &lr.batches}
	var speed speedMeter
	for _, task := range tasks {
		if measureSpeed {
			speed.sample()
		}
		sp, err := space.ForTask(task)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		gl := tk.Tuner()
		gl.Tracer = tracer
		ts, err := gl.NewTuneSession(task, sp, m, budget, g.Split("tune/"+task.Name()))
		if err != nil {
			lr.wall += time.Since(t0)
			lr.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", task.Name(), err)
			continue
		}
		lr.openMS = append(lr.openMS, ms(time.Since(t0)))
		for {
			s0 := time.Now()
			done, err := ts.Step()
			lr.stepMS = append(lr.stepMS, ms(time.Since(s0)))
			if err != nil {
				lr.wall += time.Since(t0)
				lr.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", task.Name(), err)
				break
			}
			if done {
				lr.results = append(lr.results, ts.Result())
				lr.tasks = append(lr.tasks, task)
				lr.jobMS = append(lr.jobMS, ms(time.Since(t0)))
				lr.wall += time.Since(t0)
				break
			}
		}
	}
	if measureSpeed {
		lr.scale = speed.scale()
	}
	return lr, nil
}

// ttfpStreams is how many tuning streams each task's first step is timed
// on.
const ttfpStreams = 20

// firstSteps times NewTuneSession and the first Step of every task on
// ttfpStreams streams of the seed, apart from the timed passes, and
// returns each task's median. A first step takes under a millisecond, so
// a few samples per task would measure the draw of a stream and the
// moments the machine's CPU was taken away more than the code; the tail
// of the raw samples measures little else.
func firstSteps(tk *core.Toolkit, tasks []workload.Task, budget tuner.Budget, seed int64) ([]float64, error) {
	local, err := measure.NewLocal(tk.TargetName)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(tasks))
	for _, task := range tasks {
		sp, err := space.ForTask(task)
		if err != nil {
			return nil, err
		}
		xs := make([]float64, 0, ttfpStreams)
		for i := 0; i < ttfpStreams; i++ {
			t0 := time.Now()
			ts, err := tk.Tuner().NewTuneSession(task, sp, local, budget, passStream(seed, i).Split("tune/"+task.Name()))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", task.Name(), err)
			}
			if _, err := ts.Step(); err != nil {
				return nil, fmt.Errorf("%s: %w", task.Name(), err)
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		out = append(out, median(xs))
	}
	return out, nil
}

// verify re-measures every task's best configuration on a fresh
// simulated device: it must be valid, reproduce the reported GFLOPS and
// come from a session that kept to its budget.
func (lr *listRun) verify(r *run, gpu string, budget tuner.Budget) {
	spec, err := hwspec.ByName(gpu)
	if err != nil {
		r.check(false, "unknown GPU %s", gpu)
		return
	}
	for i, res := range lr.results {
		verifyResult(r, gpusim.NewDevice(spec), lr.tasks[i], res, budget)
	}
}

func verifyResult(r *run, dev *gpusim.Device, task workload.Task, res *tuner.Result, budget tuner.Budget) {
	sp, err := space.ForTask(task)
	if err != nil {
		r.check(false, "%s: %v", task.Name(), err)
		return
	}
	if res.BestIndex < 0 || res.BestIndex >= sp.Size() {
		r.check(false, "%s: best index %d outside the space", task.Name(), res.BestIndex)
		return
	}
	got := dev.MeasureIndex(task, sp, res.BestIndex)
	r.check(got.Valid, "%s: best config %d is invalid on a fresh %s (%s)", task.Name(), res.BestIndex, dev.Spec.Name, got.FailReason)
	r.check(sameBits(got.GFLOPS, res.BestGFLOPS), "%s: best config re-measures at %.6f GFLOPS, reported %.6f", task.Name(), got.GFLOPS, res.BestGFLOPS)
	if budget.MaxMeasurements > 0 {
		r.check(res.Measurements <= budget.MaxMeasurements, "%s: %d measurements over the budget of %d", task.Name(), res.Measurements, budget.MaxMeasurements)
	}
}

// passStream is the tuning stream of a run's pass: pass 0 tunes what
// `glimpse -seed <seed>` tunes, and each later pass draws its own stream
// from the seed.
func passStream(seed int64, pass int) *rng.RNG {
	if pass == 0 {
		return rng.New(seed)
	}
	return rng.New(seed).Split(fmt.Sprintf("pass/%d", pass))
}

// tunePasses tunes the task list n times, each pass on its own stream,
// verifies every result, and times the tasks' first steps.
func tunePasses(r *run, tk *core.Toolkit, tasks []workload.Task, budget tuner.Budget, n int) ([]*listRun, []float64, error) {
	var passes []*listRun
	for p := 0; p < n; p++ {
		lr, err := tuneList(tk, tasks, budget, passStream(r.seed, p), nil, true)
		if err != nil {
			return nil, nil, err
		}
		r.attempted += len(tasks)
		r.failed += lr.failed
		lr.verify(r, tk.TargetName, budget)
		passes = append(passes, lr)
	}
	ttfp, err := firstSteps(tk, tasks, budget, r.seed)
	return passes, ttfp, err
}

// recordEndToEnd sets the end-to-end metrics of the CLI loop, over
// passes of the same list on different streams and the tasks' first-step
// times ttfp. A task's time is stated at reference speed by the
// reference times of its own pass, and its figure is the median over the
// passes; the percentile runs over tasks. ttfp stays unscaled: a first
// step is mostly serial, and where one vCPU slows, the two-goroutine
// reference waits for it while a serial step need not; scaled, the
// first-step median jumped between 0.3 and 0.55 ms from seed to seed. A task takes well under a
// second, so a median per task sheds a moment's slowdown of the machine
// that a median over whole passes would keep. The code's quality and
// measurement cost read every pass, which evens out the luck of a single
// stream.
func recordEndToEnd(r *run, passes []*listRun, ttfp []float64) {
	job := perTaskMedian(passes, func(lr *listRun) []float64 {
		xs := make([]float64, len(lr.jobMS))
		for i, x := range lr.jobMS {
			xs[i] = x * lr.scale
		}
		return xs
	})
	var gflops []float64
	gpu := 0.0
	for _, lr := range passes {
		for _, res := range lr.results {
			gflops = append(gflops, res.BestGFLOPS)
			gpu += res.GPUSeconds
		}
	}
	r.set("best_gflops_geomean", geomean(gflops))
	r.set("gpu_s", gpu/float64(len(passes)))
	r.set("ttfp_ms_p50", quantile(ttfp, 0.5))
	r.set("job_ms_p50", quantile(job, 0.5))
}

// perTaskMedian is each task's median over passes of the same list.
func perTaskMedian(passes []*listRun, times func(*listRun) []float64) []float64 {
	out := make([]float64, len(times(passes[0])))
	for i := range out {
		var xs []float64
		for _, lr := range passes {
			if t := times(lr); i < len(t) {
				xs = append(xs, t[i])
			}
		}
		out[i] = median(xs)
	}
	return out
}

// checkSameResults requires the per-task results of two passes over the
// same list to be byte-identical.
func checkSameResults(r *run, want, got *listRun, what string) {
	r.check(len(want.results) == len(got.results), "%s finished %d tasks, the first pass %d", what, len(got.results), len(want.results))
	for i := 0; i < len(want.results) && i < len(got.results); i++ {
		a, errA := json.Marshal(want.results[i])
		b, errB := json.Marshal(got.results[i])
		r.check(errA == nil && errB == nil && string(a) == string(b), "%s: %s tuned differently from the first pass", want.results[i].TaskName, what)
	}
}

// recordTuneLayers sets the per-layer metrics of a traced CLI-loop pass.
func recordTuneLayers(r *run, lr *listRun, spans []selfSpan) {
	r.set("core.step_ms_p50", quantile(lr.stepMS, 0.5))
	r.set("core.step_ms_p90", quantile(lr.stepMS, 0.9))
	r.set("core.steps", float64(len(lr.stepMS)))
	r.set("core.open_ms_p50", quantile(lr.openMS, 0.5))
	r.set("core.job_ms_p90", quantile(lr.jobMS, 0.9))
	lr.batches.record(r)
	recordStageSelf(r, spans)
}

// recordStageSelf sets the traced self-time metrics of the tuning loop's
// stages and the ensemble's keep ratio.
func recordStageSelf(r *run, spans []selfSpan) {
	r.set("core.step_self_s", selfSeconds(spans, telemetry.StageStep))
	r.set("anneal.self_s", selfSeconds(spans, telemetry.StageAnneal))
	r.set("gp.fit_self_s", selfSeconds(spans, telemetry.StageSurrogateTrain))
	r.set("gp.score_self_s", selfSeconds(spans, telemetry.StageSurrogateScore))
	r.set("acq.score_self_s", selfSeconds(spans, telemetry.StageAcquisition))
	r.set("sampler.vote_self_s", selfSeconds(spans, telemetry.StageEnsembleVote))
	if cands := attrSum(spans, telemetry.StageEnsembleVote, "cands"); cands > 0 {
		r.set("sampler.kept_ratio", attrSum(spans, telemetry.StageEnsembleVote, "kept")/cands)
	}
}

// stepShares prints, to stderr, each stage's self time as a share of all
// step time; the shares of a step's subtree sum to one.
func stepShares(spans []selfSpan) {
	total := 0.0
	for _, s := range spans {
		if s.Stage == telemetry.StageStep {
			total += float64(s.DurUS)
		}
	}
	if total == 0 {
		return
	}
	for _, st := range []string{telemetry.StageStep, telemetry.StageAnneal, telemetry.StageSurrogateTrain,
		telemetry.StageSurrogateScore, telemetry.StageAcquisition, telemetry.StageEnsembleVote,
		telemetry.StagePriorSample, telemetry.StageMeasure} {
		fmt.Fprintf(os.Stderr, "perfbench: self %-16s %5.1f%% of step time\n", st, 100*selfSeconds(spans, st)*1e6/total)
	}
}

// checkPartition verifies that the self times under every step span sum
// to the step's duration, up to the tracer's microsecond truncation.
func checkPartition(r *run, spans []selfSpan) {
	var gap, slack, total int64
	counts := map[string]int64{}
	for _, s := range spans {
		counts[s.ParentID]++
	}
	for _, s := range spans {
		if s.Stage != telemetry.StageStep {
			continue
		}
		d := s.SubtreeSelfUS - s.DurUS
		if d < 0 {
			d = -d
		}
		gap += d
		total += s.DurUS
		slack += 2 * (1 + counts[s.SpanID])
	}
	r.check(total > 0, "traced run recorded no step spans")
	r.check(gap <= slack+total/10000, "self times miss the step spans by %dµs of %dµs", gap, total)
}

func runTune(r *run) error {
	tasks := workload.MustTasks(workload.ResNet18)
	var tk *core.Toolkit
	if err := r.setups(3, func(bool) error {
		var err error
		tk, err = smallToolkit()
		return err
	}); err != nil {
		return err
	}

	if !r.trace {
		passes, ttfp, err := tunePasses(r, tk, tasks, tuneBudget, max(1, int(r.seconds/tunePassSeconds)))
		if err != nil {
			return err
		}
		recordEndToEnd(r, passes, ttfp)
		return nil
	}

	if err := runProbes(r); err != nil {
		return err
	}
	base, err := tuneList(tk, tasks, tuneBudget, passStream(r.seed, 0), nil, false)
	if err != nil {
		return err
	}
	buf := &traceBuffer{}
	tracer := telemetry.NewTracer(buf, nil)
	mem := memNow()
	traced, err := tuneList(tk, tasks, tuneBudget, passStream(r.seed, 0), tracer, false)
	if err != nil {
		return err
	}
	r.recordMem(mem)
	if err := tracer.Err(); err != nil {
		return err
	}
	r.attempted += 2 * len(tasks)
	r.failed += base.failed + traced.failed
	traced.verify(r, tk.TargetName, tuneBudget)

	// Tracing observes and never steers.
	checkSameResults(r, base, traced, "the traced pass")
	r.set("telemetry.trace_overhead_ratio", traced.wall.Seconds()/base.wall.Seconds())

	evs, err := buf.spans()
	if err != nil {
		return err
	}
	spans := attribute(evs)
	checkPartition(r, spans)
	stepShares(spans)
	recordTuneLayers(r, traced, spans)
	return nil
}
