package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/neuralcompile/glimpse/internal/blueprint"
	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/faults"
	"github.com/neuralcompile/glimpse/internal/gpusim"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/measure"
	"github.com/neuralcompile/glimpse/internal/parallel"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/server"
	"github.com/neuralcompile/glimpse/internal/telemetry"
	"github.com/neuralcompile/glimpse/internal/tuner"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// serve-mixed: a glimpsed server on loopback with two sessions, measuring
// over net/rpc against an in-process measure.Server, loaded by two
// closed-loop clients. Each client owns half of the distinct tasks, so a
// (task, GPU) pair is only ever tuned by one client and its repeats are
// served from the cache after that tuning has finished.
//
// Both clients start on titan-xp, whose toolkit set-up primed. alpha's
// job coldAt is the stream's first rtx-3090 job, whose toolkit nobody has
// trained. beta holds its job coldAt until that job is running, and its
// next two jobs tune titan-xp tasks it has not seen: their toolkit is
// trained already, so their fetches show what a cold key costs the other
// sessions.
const (
	serveSessions = 2
	jobsPerClient = 80                   // 96 (task, GPU) pairs over 160 jobs: two in five repeat
	serveBudget   = 32                   // measurements per tuned job: the prior batch and one step
	coldAt        = 12                   // index of a client's first job after the cold key
	serveJobSeed  = 1                    // every job's seed: cmd/glimpse's default
	deviceService = 2 * time.Millisecond // device time per measurement, see newServeEnv
	serveDeadline = 150 * time.Second
)

var serveTenants = map[string]float64{"alpha": 30_000, "beta": 10_000} // 3:1 fair share

// serveJob is one submitted job as its client saw it.
type serveJob struct {
	spec     server.JobSpec
	id       string
	submitMS float64
	rejected bool    // the submit was answered 429 or 503
	ttfpMS   float64 // submit start → first step event, or → terminal for a cache hit
	jobMS    float64 // submit start → terminal event
	view     jobView
	err      error
}

// jobView mirrors the fields of glimpsed's job API the benchmark reads.
type jobView struct {
	State  string        `json:"state"`
	Cached bool          `json:"cached"`
	Warm   bool          `json:"warm"`
	Result *tuner.Result `json:"result"`
}

// serveJobs generates each client's job list from the seed. Every job
// carries the seed cmd/glimpse defaults to, so each GPU's toolkit is
// keyed once, the rtx-3090 toolkit is `glimpse -artifacts`'s for it, and
// a pair's tuning stream does not depend on the workload seed, which
// shuffles the stream instead.
//
// A client's list holds each of its (task, GPU) pairs once, in seeded
// order. Its first coldAt jobs are new titan-xp pairs, beta leaving out
// its two held-back tasks. At coldAt alpha sends its first rtx-3090 job
// and beta its held-back tasks on titan-xp. The rest of the pairs follow,
// with seeded repeats of earlier jobs spread among them up to
// jobsPerClient.
func serveJobs(seed int64) (clients map[string][]server.JobSpec, err error) {
	tasks, err := distinctTasks()
	if err != nil {
		return nil, err
	}
	g := rng.New(seed).Split("serve-mixed")
	clients = map[string][]server.JobSpec{}
	for c, tenant := range []string{"alpha", "beta"} {
		cg := g.Split(tenant)
		var own []workload.Task
		for i, task := range tasks {
			if i%2 == c {
				own = append(own, task)
			}
		}
		spec := func(task workload.Task, gpu string) server.JobSpec {
			return server.JobSpec{Model: task.Model, TaskIndex: task.Index, GPU: gpu, Seed: serveJobSeed,
				Tenant: tenant, MaxMeasurements: serveBudget}
		}
		// New pairs in the order they first run: titan-xp ones before
		// coldAt, then everything left, shuffled.
		cg.Shuffle(len(own), func(i, j int) { own[i], own[j] = own[j], own[i] })
		var early, late []server.JobSpec
		for i, task := range own {
			if tenant == "beta" && i < 2 {
				continue
			}
			early = append(early, spec(task, hwspec.TitanXp))
		}
		if len(early) < coldAt {
			return nil, fmt.Errorf("%s has %d titan-xp pairs for %d jobs before the cold key", tenant, len(early), coldAt)
		}
		late = append(late, early[coldAt:]...)
		early = early[:coldAt]
		for _, task := range own {
			late = append(late, spec(task, hwspec.RTX3090))
		}
		cg.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
		if tenant == "alpha" {
			for i, s := range late {
				if s.GPU == hwspec.RTX3090 {
					late[0], late[i] = late[i], late[0]
					break
				}
			}
		} else {
			late = append([]server.JobSpec{spec(own[0], hwspec.TitanXp), spec(own[1], hwspec.TitanXp)}, late...)
		}
		if len(early)+len(late) > jobsPerClient {
			return nil, fmt.Errorf("%s has %d pairs for %d jobs", tenant, len(early)+len(late), jobsPerClient)
		}

		// Each remaining slot takes the next new pair or a repeat, in
		// proportion to how many of each are left.
		list := append([]server.JobSpec(nil), early...)
		repeats := jobsPerClient - len(early) - len(late)
		pinned := 1
		if tenant == "beta" {
			pinned = 2
		}
		list = append(list, late[:pinned]...)
		rest := late[pinned:]
		for slots := repeats + len(rest); slots > 0; slots-- {
			if len(rest) > 0 && cg.Intn(slots) < len(rest) {
				list = append(list, rest[0])
				rest = rest[1:]
				continue
			}
			list = append(list, list[cg.Intn(len(list))])
		}
		clients[tenant] = list
	}
	return clients, nil
}

// timedToolkits wraps glimpsed's default toolkit provider and times
// every fetch. A fetch of a key that an earlier fetch already returned
// should be a map lookup; whatever longer it takes is time spent
// blocked behind another key's training.
type timedToolkits struct {
	inner server.ToolkitProvider

	mu      sync.Mutex
	ready   map[string]bool
	allMS   []float64 // every fetch
	warmMS  []float64 // fetches of keys ready when the fetch began
	firstMS []float64 // each key's first fetch: a disk load or a training
}

func (t *timedToolkits) Toolkit(gpu string, seed int64) (*core.Toolkit, error) {
	key := fmt.Sprintf("%s/%d", gpu, seed)
	t.mu.Lock()
	wasReady := t.ready[key]
	t.mu.Unlock()
	t0 := time.Now()
	tk, err := t.inner.Toolkit(gpu, seed)
	d := ms(time.Since(t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allMS = append(t.allMS, d)
	switch {
	case wasReady:
		t.warmMS = append(t.warmMS, d)
	case err == nil && !t.ready[key]:
		t.firstMS = append(t.firstMS, d)
	}
	if err == nil {
		t.ready[key] = true
	}
	return tk, err
}

// serveEnv is one set-up: a measurement server, a glimpsed server, and
// what the benchmark's wrappers record from them.
type serveEnv struct {
	primed   string // titan-xp's saved toolkit
	state    string
	devices  *measure.Server
	srv      *server.Server
	base     string
	toolkits *timedToolkits
	batches  *batchStats
}

func newServeEnv(dir string, tracer *telemetry.Tracer) (*serveEnv, error) {
	artifacts := filepath.Join(dir, "artifacts")
	if err := os.MkdirAll(artifacts, 0o755); err != nil {
		return nil, err
	}
	// Prime titan-xp's toolkit the way a restarted glimpsed finds it: a
	// saved artifact under the provider's file name for the job seed.
	tk, err := smallToolkit()
	if err != nil {
		return nil, err
	}
	primed := filepath.Join(artifacts, fmt.Sprintf("%s-seed%d.json", hwspec.TitanXp, serveJobSeed))
	if err := tk.Save(primed); err != nil {
		return nil, err
	}

	// The devices serve each measurement in deviceService, as cmd/measured
	// does with -chaos-service: gpusim charges about 2 s of compile,
	// transfer and timed runs per measurement (2.0–2.2 s on average on
	// these workloads), here played at a thousandth of that in real time.
	gpus := []string{hwspec.TitanXp, hwspec.RTX3090}
	service := faults.Healthy(len(gpus), deviceService)
	devices, err := measure.NewServerWrapped(gpus, func(i int, _ string, m measure.Measurer) measure.Measurer {
		return service.Wrap(i, m)
	})
	if err != nil {
		return nil, err
	}
	devices.SetTracer(tracer)
	addr, err := devices.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env := &serveEnv{
		primed:   primed,
		state:    filepath.Join(dir, "state"),
		devices:  devices,
		toolkits: &timedToolkits{inner: server.NewTrainingToolkits(artifacts), ready: map[string]bool{}},
		batches:  &batchStats{},
	}
	env.srv, err = server.New(server.Config{
		StateDir:      env.state,
		Sessions:      serveSessions,
		TenantBudgets: serveTenants,
		CachePath:     filepath.Join(dir, "cache.jsonl"),
		ArtifactsDir:  artifacts,
		Toolkits:      env.toolkits,
		NewMeasurer: func(gpu string) (measure.Measurer, func() error, error) {
			rm, err := measure.Dial(addr, gpu)
			if err != nil {
				return nil, nil, err
			}
			return timedMeasurer{inner: rm, stats: env.batches}, rm.Close, nil
		},
		Log:    io.Discard,
		Tracer: tracer,
	})
	if err != nil {
		_ = devices.Close() // already failing with err
		return nil, err
	}
	base, err := env.srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		_ = devices.Close() // already failing with err
		return nil, err
	}
	env.base = "http://" + base
	return env, nil
}

// close drains glimpsed and then the measurement server.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Drain(ctx)
	if derr := e.devices.DrainAndClose(ctx); err == nil {
		err = derr
	}
	return err
}

func runServe(r *run) error {
	clients, err := serveJobs(r.seed)
	if err != nil {
		return err
	}
	var buf *traceBuffer
	var tracer *telemetry.Tracer
	if r.trace {
		if err := runProbes(r); err != nil {
			return err
		}
		buf = &traceBuffer{}
		tracer = telemetry.NewTracer(buf, nil)
	}
	var env *serveEnv
	n := 0
	if err := r.setups(3, func(last bool) error {
		n++
		e, err := newServeEnv(filepath.Join(r.dir, fmt.Sprintf("serve-%d", n)), tracer)
		if err != nil {
			return err
		}
		if !last {
			return e.close()
		}
		env = e
		return nil
	}); err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = env.close() // already failing; the run reports that error
		}
	}()

	if err := checkArtifact(r, env.primed, filepath.Join(r.dir, "again.json")); err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), serveDeadline)
	defer cancel()
	mem := memNow()
	start := time.Now()
	coldRunning := make(chan struct{}) // closed once alpha's cold job runs, or alpha stops
	var coldOnce sync.Once
	signalCold := func() { coldOnce.Do(func() { close(coldRunning) }) }
	tenants := []string{"alpha", "beta"}
	// Two workers for two clients: both loops run at once.
	ran := parallel.Map(len(tenants), len(tenants), func(c int) []*serveJob {
		tenant := tenants[c]
		if tenant == "alpha" {
			defer signalCold()
		}
		specs := clients[tenant]
		out := make([]*serveJob, 0, len(specs))
		for i, spec := range specs {
			var onRunning func()
			switch {
			case tenant == "alpha" && i == coldAt:
				onRunning = signalCold
			case tenant == "beta" && i == coldAt:
				select {
				case <-coldRunning:
				case <-ctx.Done():
				}
			}
			j := runServeJob(ctx, env.base, spec, onRunning)
			out = append(out, j)
			if j.err != nil && ctx.Err() != nil {
				break
			}
		}
		return out
	})
	results := map[string][]*serveJob{}
	for c, tenant := range tenants {
		results[tenant] = ran[c]
	}
	wall := time.Since(start)

	ledger, listed, err := serveBooks(ctx, env.base)
	if err != nil {
		return err
	}
	closed = true
	if err := env.close(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if r.trace {
		r.recordMem(mem)
	}
	return recordServe(r, env, clients, results, wall, ledger, listed, buf)
}

// checkArtifact loads the saved toolkit at path and saves it again to
// again: the bytes must not change, and the loaded Blueprint embedding
// must be the registry's. A traced run records the load and save times
// and the artifact's size.
func checkArtifact(r *run, path, again string) error {
	first, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	l0 := time.Now()
	loaded, err := core.LoadToolkit(path)
	if err != nil {
		return err
	}
	load := time.Since(l0)
	s0 := time.Now()
	if err := loaded.Save(again); err != nil {
		return err
	}
	save := time.Since(s0)
	second, err := os.ReadFile(again)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(first, second), "Save → Load → Save changed the toolkit artifact (%d vs %d bytes)", len(first), len(second))
	registry, err := blueprint.Build(hwspec.Registry(), blueprint.DefaultDim())
	if err != nil {
		return err
	}
	want, err := json.Marshal(registry)
	if err != nil {
		return err
	}
	got, err := json.Marshal(loaded.Emb)
	if err != nil {
		return err
	}
	r.check(bytes.Equal(got, want), "the loaded toolkit's Blueprint embedding differs from the registry's")
	if r.trace {
		r.set("core.toolkit_save_ms", ms(save))
		r.set("core.toolkit_load_ms", ms(load))
		r.set("core.toolkit_bytes", float64(len(first)))
	}
	return nil
}

// runServeJob submits one job and follows its event stream to the end,
// calling onRunning (if set) when the job starts running.
func runServeJob(ctx context.Context, base string, spec server.JobSpec, onRunning func()) *serveJob {
	j := &serveJob{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return j
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	var sub struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&sub)
	_ = resp.Body.Close() // read in full; nothing is lost

	j.submitMS = ms(time.Since(t0))
	j.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	if resp.StatusCode != http.StatusAccepted || derr != nil {
		j.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return j
	}
	j.id = sub.ID

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+j.id+"/events", nil)
	if err != nil {
		j.err = err
		return j
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			continue
		}
		if ev.Kind == "state" && ev.State == "running" && onRunning != nil {
			onRunning()
		}
		if ev.Kind == "step" && j.ttfpMS == 0 {
			j.ttfpMS = ms(time.Since(t0))
		}
		if ev.Kind == "state" && (ev.State == "done" || ev.State == "failed" || ev.State == "canceled") {
			j.jobMS = ms(time.Since(t0))
			break
		}
	}
	_ = resp.Body.Close() // the stream is only read
	if j.jobMS == 0 {
		j.err = fmt.Errorf("job %s: event stream ended before a terminal state", j.id)
		return j
	}
	if j.ttfpMS == 0 {
		j.ttfpMS = j.jobMS
	}
	j.err = getJSON(ctx, base+"/v1/jobs/"+j.id, &j.view)
	return j
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveBooks reads the tenant ledger's GPU-second total and the job list.
func serveBooks(ctx context.Context, base string) (float64, []jobView, error) {
	var tv struct {
		Tenants []tuner.TenantSpend `json:"tenants"`
	}
	if err := getJSON(ctx, base+"/v1/tenants", &tv); err != nil {
		return 0, nil, err
	}
	ledger := 0.0
	for _, ts := range tv.Tenants {
		ledger += ts.GPUSeconds
	}
	var listed []jobView
	if err := getJSON(ctx, base+"/v1/jobs", &listed); err != nil {
		return 0, nil, err
	}
	return ledger, listed, nil
}

// pairKey names a (task, GPU) pair.
func pairKey(spec server.JobSpec) string {
	return fmt.Sprintf("%s/%d@%s", spec.Model, spec.TaskIndex, spec.GPU)
}

func recordServe(r *run, env *serveEnv, clients map[string][]server.JobSpec, results map[string][]*serveJob,
	wall time.Duration, ledger float64, listed []jobView, buf *traceBuffer) error {

	var submit, ttfp, job, gflops []float64
	var gpuSeconds float64
	done, cached, warm, rejected := 0, 0, 0, 0
	// Per pair, the best tuned result so far, the first on a tie: what the
	// improvement-only cache holds for it.
	best := map[string]*tuner.Result{}
	for tenant, specs := range clients {
		r.attempted += len(specs)
		jobs := results[tenant]
		r.check(len(jobs) == len(specs), "client %s ran %d of its %d jobs", tenant, len(jobs), len(specs))
		for _, j := range jobs {
			submit = append(submit, j.submitMS)
			if j.err != nil {
				r.failed++
				if j.rejected {
					rejected++
				}
				fmt.Fprintf(os.Stderr, "perfbench: %s job %s: %v\n", tenant, pairKey(j.spec), j.err)
				continue
			}
			v := j.view
			if v.State != "done" || v.Result == nil {
				r.failed++
				continue
			}
			done++
			ttfp = append(ttfp, j.ttfpMS)
			job = append(job, j.jobMS)
			gpuSeconds += v.Result.GPUSeconds
			key := pairKey(j.spec)
			if v.Warm {
				warm++
			}
			if v.Cached {
				cached++
				checkHit(r, key, v.Result, best[key])
				continue
			}
			if b := best[key]; b == nil || v.Result.BestGFLOPS > b.BestGFLOPS {
				best[key] = v.Result
			}
			task, err := workload.TaskByIndex(j.spec.Model, j.spec.TaskIndex)
			r.check(err == nil, "%s: %v", key, err)
			if err == nil {
				verifyResult(r, gpusim.NewDevice(hwspec.MustByName(j.spec.GPU)), task, v.Result,
					tuner.Budget{MaxMeasurements: serveBudget})
			}
		}
	}
	lost := 0
	for _, v := range listed {
		if v.State != "done" && v.State != "failed" && v.State != "canceled" {
			lost++
		}
	}
	r.failed += lost
	r.check(r.failed == 0, "%d job(s) failed, were rejected or were lost", r.failed)
	diff := ledger - gpuSeconds
	r.check(diff <= 1e-6 && diff >= -1e-6, "ledger holds %.9f GPU-seconds, results sum to %.9f", ledger, gpuSeconds)
	for _, b := range best {
		gflops = append(gflops, b.BestGFLOPS)
	}

	if !r.trace {
		r.set("best_gflops_geomean", geomean(gflops))
		r.set("gpu_s", gpuSeconds)
		r.set("ttfp_ms_p50", quantile(ttfp, 0.5))
		r.set("job_ms_p50", quantile(job, 0.5))
		return nil
	}

	tk := env.toolkits
	tk.mu.Lock()
	r.set("server.toolkit_fetch_ms_p50", quantile(tk.allMS, 0.5))
	r.set("server.toolkit_fetch_ms_max", maxOf(tk.warmMS))
	r.set("server.toolkit_blocked_s", sum(tk.warmMS)/1000)
	r.set("core.toolkit_train_s", maxOf(tk.firstMS)/1000)
	tk.mu.Unlock()
	r.set("server.stream_s", wall.Seconds())
	r.set("server.jobs_per_s", float64(done)/wall.Seconds())
	r.set("server.ttfp_ms_p90", quantile(ttfp, 0.9))
	r.set("server.job_ms_p90", quantile(job, 0.9))
	r.set("server.submit_ms_p50", quantile(submit, 0.5))
	r.set("server.submit_ms_p90", quantile(submit, 0.9))
	r.set("server.rejected", float64(rejected))
	if done > 0 {
		r.set("cache.hit_ratio", float64(cached)/float64(done))
		r.set("cache.warm_ratio", float64(warm)/float64(done))
	}
	stateBytes, err := dirBytes(env.state)
	if err != nil {
		return err
	}
	r.set("tlog.state_bytes", float64(stateBytes))
	env.batches.record(r)

	evs, err := buf.spans()
	if err != nil {
		return err
	}
	spans := attribute(evs)
	steps := stageMS(spans, telemetry.StageStep, false)
	r.set("core.step_ms_p50", quantile(steps, 0.5))
	r.set("core.step_ms_p90", quantile(steps, 0.9))
	r.set("core.steps", float64(len(steps)))
	waits := stageMS(spans, telemetry.StageQueueWait, false)
	r.set("server.queue_wait_ms_p50", quantile(waits, 0.5))
	r.set("server.queue_wait_ms_p90", quantile(waits, 0.9))
	r.set("server.job_self_ms_p50", quantile(stageMS(spans, telemetry.StageJob, true), 0.5))
	recordStageSelf(r, spans)
	return nil
}

// checkHit requires a cache-hit result to equal the best result that
// tuning the pair produced before it.
func checkHit(r *run, key string, hit, want *tuner.Result) {
	if want == nil {
		r.check(false, "%s: cache hit before the pair was tuned", key)
		return
	}
	r.check(hit.BestIndex == want.BestIndex && sameBits(hit.BestGFLOPS, want.BestGFLOPS) && sameBits(hit.BestTimeMS, want.BestTimeMS),
		"%s: cache hit serves config %d at %.3f GFLOPS, tuning found %d at %.3f",
		key, hit.BestIndex, hit.BestGFLOPS, want.BestIndex, want.BestGFLOPS)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
