// Command glimpse tunes a DNN model for a target GPU with the Glimpse
// hardware-aware compiler and prints per-task results.
//
// Usage:
//
//	glimpse -model resnet-18 -gpu titan-xp [-tasks 1,7,17] [-budget 192]
//	        [-seed N] [-compare] [-rpc addr] [-artifacts path] [-log path]
//	        [-checkpoint path] [-fallback-local] [-retries 3] [-workers N]
//	        [-trace path] [-cache path] [-warm-k 3] [-cache-readonly]
//
// With -compare, AutoTVM runs on the same tasks for reference. With -rpc,
// measurements go to a measurement server (cmd/measured) instead of the
// in-process simulator; they then run behind measure.Reliable (batch
// deadline, bounded retries, circuit breaker), and -fallback-local adds the
// in-process simulator as a failover backend so tuning survives a dead
// server. -artifacts caches the trained offline toolkit (loaded when
// present, trained and saved otherwise); -log appends every hardware
// measurement as a JSON line (AutoTVM-style tuning log). -checkpoint
// records each finished task in a JSONL file; rerunning with the same file
// skips them. -trace writes a JSONL span trace of the tuning loop's stages
// (prior sampling, annealing, surrogate fits, acquisition, measurement);
// aggregate it with cmd/tracereport. Tracing observes only — results are
// byte-identical with and without it.
//
// -cache points at a persistent tuned-config store (JSONL, created if
// absent): a task whose workload fingerprint and GPU were tuned before is
// served from the store with zero measurements, and a task tuned before
// only on *other* GPUs warm-starts from the -warm-k nearest donors in
// Blueprint space under a shrunken budget. New bests are written back
// unless -cache-readonly is set (which also never creates or modifies the
// file — safe for concurrent serving).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/neuralcompile/glimpse/internal/cache"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/fleet"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/metrics"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/space"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tlog"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "glimpse:", err)
		os.Exit(1)
	}
}

// run parses args and tunes the selected tasks, writing the result table
// to stdout and progress messages to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("glimpse", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", workload.ResNet18, "model: alexnet | resnet-18 | vgg-16")
	gpu := fs.String("gpu", hwspec.TitanXp, "target GPU (see cmd/blueprintctl list)")
	taskList := fs.String("tasks", "", "comma-separated 1-based task indices (default: all)")
	budget := fs.Int("budget", 192, "hardware measurements per task")
	seed := fs.Int64("seed", 1, "random seed")
	compare := fs.Bool("compare", false, "also run AutoTVM for reference")
	rpcAddr := fs.String("rpc", "", "measurement server address (default: in-process simulator)")
	artifacts := fs.String("artifacts", "", "toolkit artifact cache path (load or train+save)")
	logPath := fs.String("log", "", "append measurements to this JSONL tuning log")
	ckptPath := fs.String("checkpoint", "", "JSONL checkpoint file (resume skips recorded tasks)")
	fallbackLocal := fs.Bool("fallback-local", false, "with -rpc: fail over to the in-process simulator")
	retries := fs.Int("retries", 3, "with -rpc: measurement attempts per batch")
	batchTimeout := fs.Duration("batch-timeout", 30*time.Second, "with -rpc: deadline per measurement batch")
	workers := fs.Int("workers", runtime.NumCPU(), "goroutines for search and scoring (results are identical for any value)")
	tracePath := fs.String("trace", "", "write a JSONL span trace of the tuning stages to this file")
	cachePath := fs.String("cache", "", "persistent tuned-config store (JSONL; exact hits skip tuning, misses warm-start)")
	warmK := fs.Int("warm-k", 3, "with -cache: nearest donor devices per warm start")
	cacheReadonly := fs.Bool("cache-readonly", false, "with -cache: serve and warm-start but never write")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parallel.SetDefaultWorkers(*workers)
	// Progress messages are best-effort: a failed stderr write must not
	// fail the tuning run.
	logf := func(format string, a ...any) { _, _ = fmt.Fprintf(stderr, format, a...) }

	var tracer *telemetry.Tracer
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer = telemetry.NewTracer(tf, nil)
		defer func() {
			if err := tracer.Err(); err != nil {
				logf("glimpse: trace write error: %v\n", err)
			}
		}()
	}

	tasks, err := workload.Tasks(*model)
	if err != nil {
		return err
	}
	if *taskList != "" {
		var picked []workload.Task
		for _, s := range strings.Split(*taskList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad task index %q: %w", s, err)
			}
			task, err := workload.TaskByIndex(*model, n)
			if err != nil {
				return err
			}
			picked = append(picked, task)
		}
		tasks = picked
	}

	var m measure.Measurer
	if *rpcAddr != "" {
		remote, err := measure.Dial(*rpcAddr, *gpu)
		if err != nil {
			return err
		}
		defer remote.Close()
		chain := []measure.Measurer{remote}
		if *fallbackLocal {
			local, err := measure.NewLocal(*gpu)
			if err != nil {
				return err
			}
			chain = append(chain, local)
		}
		m, err = measure.NewReliable(measure.ReliableConfig{
			MaxAttempts:  *retries,
			BatchTimeout: *batchTimeout,
			Seed:         *seed,
			EventSink: func(e measure.Event) {
				tracer.Event(telemetry.StageMeasure, map[string]any{
					"event": e.Kind, "backend": e.Backend, "task": e.Task, "detail": e.Detail,
				})
			},
		}, chain...)
		if err != nil {
			return err
		}
	} else {
		local, err := measure.NewLocal(*gpu)
		if err != nil {
			return err
		}
		m = local
	}

	if *logPath != "" {
		// Resume sequence numbering from whatever the log already holds, so
		// appended sessions extend it instead of restarting at 1.
		lastSeq := 0
		if existing, err := os.ReadFile(*logPath); err == nil {
			entries, err := tlog.Read(bytes.NewReader(existing))
			if err != nil {
				return fmt.Errorf("existing log %s: %w", *logPath, err)
			}
			if len(entries) > 0 {
				lastSeq = entries[len(entries)-1].Seq
			}
		}
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		m = &tlog.RecordingMeasurer{Inner: m, Out: tlog.NewWriter(f, lastSeq)}
	}

	g := rng.New(*seed)
	tk, loaded, err := core.LoadOrTrainToolkit(*artifacts, *gpu, g.Split("toolkit"))
	switch {
	case err != nil:
		return err
	case loaded:
		logf("loaded trained artifacts from %s\n", *artifacts)
	default:
		logf("trained Glimpse offline artifacts for %s (leave-target-out)\n", *gpu)
		if *artifacts != "" {
			logf("saved artifacts to %s\n", *artifacts)
		}
	}

	var store *cache.Store
	if *cachePath != "" {
		if *cacheReadonly {
			store, err = cache.OpenReadOnly(*cachePath)
		} else {
			store, err = cache.Open(*cachePath)
		}
		if err != nil {
			return err
		}
		defer store.Close()
		if n := store.Len(); n > 0 {
			logf("tuned-config cache: %d entries in %s\n", n, *cachePath)
		}
	}

	var ck *fleet.Checkpoint
	if *ckptPath != "" {
		ck, err = fleet.OpenCheckpoint(*ckptPath)
		if err != nil {
			return err
		}
		defer ck.Close()
		if n := ck.Len(); n > 0 {
			logf("resuming: %d tasks already checkpointed in %s\n", n, *ckptPath)
		}
	}

	bud := tuner.Budget{MaxMeasurements: *budget, Patience: 4, Epsilon: 0.01}
	table := metrics.NewTable(
		fmt.Sprintf("Glimpse tuning %s on %s (%d measurements/task)", *model, *gpu, *budget),
		"task", "tuner", "best GFLOPS", "kernel ms", "measured", "invalid", "GPU s")
	for _, task := range tasks {
		if ck != nil {
			if tp, ok := ck.Lookup(*model, *gpu, task.Name()); ok {
				table.AddRowf(task.Name(), "glimpse*",
					fmt.Sprintf("%.0f", tp.GFLOPS), fmt.Sprintf("%.4f", tp.TimeMS),
					tp.Measurements, tp.Invalid, fmt.Sprintf("%.0f", tp.GPUSeconds))
				continue
			}
		}
		sp, err := space.ForTask(task)
		if err != nil {
			return err
		}
		lk := store.Lookup(task, sp, *gpu, *warmK, tracer, telemetry.SpanContext{})
		res, name := lk.Hit, cache.HitTunerName
		if res == nil {
			gl := tk.Tuner()
			gl.Tracer = tracer
			taskBudget, warm := lk.ApplyWarmStart(gl, bud)
			name = "glimpse"
			if warm {
				name = "glimpse (warm)"
			}
			if res, err = gl.Tune(task, sp, m, taskBudget, g.Split("tune/"+task.Name())); err != nil {
				return err
			}
			if err := store.Record(lk, *model, task, sp, res); err != nil {
				return err
			}
		}
		table.AddRowf(task.Name(), name,
			fmt.Sprintf("%.0f", res.BestGFLOPS), fmt.Sprintf("%.4f", res.BestTimeMS),
			res.Measurements, res.Invalid, fmt.Sprintf("%.0f", res.GPUSeconds))
		if lk.Hit != nil {
			continue
		}
		if ck != nil && res.BestIndex >= 0 {
			if err := ck.Append(*model, *gpu, fleet.NewTaskPlan(task, sp, res)); err != nil {
				return err
			}
		}
		if *compare {
			atvm := tuner.AutoTVM{}
			atvm.Anneal.Tracer = tracer
			atvm.Model.Tracer = tracer
			ares, err := atvm.Tune(task, sp, m, bud, g.Split("autotvm/"+task.Name()))
			if err != nil {
				return err
			}
			table.AddRowf("", "autotvm",
				fmt.Sprintf("%.0f", ares.BestGFLOPS), fmt.Sprintf("%.4f", ares.BestTimeMS),
				ares.Measurements, ares.Invalid, fmt.Sprintf("%.0f", ares.GPUSeconds))
		}
	}
	if _, err := fmt.Fprint(stdout, table.String()); err != nil {
		return err
	}
	if store != nil {
		st := store.Stats()
		logf("cache: %d hits, %d misses, %d warm starts, %d puts (%d skipped)\n",
			st.Hits, st.Misses, st.WarmStarts, st.Puts, st.PutSkips)
	}
	return nil
}
