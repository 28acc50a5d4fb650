package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/core"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

// smallToolkit trains the reduced toolkit the service tests use, so the
// CLI runs below measure the tuning loop, not offline training, and saves
// it where -artifacts loads it.
func smallToolkit(t *testing.T, target, path string) {
	t.Helper()
	var tasks []workload.Task
	for _, ref := range []struct {
		model string
		l     int
	}{
		{workload.ResNet18, 4}, {workload.ResNet18, 5}, {workload.ResNet18, 7},
		{workload.ResNet18, 8}, {workload.ResNet18, 10}, {workload.ResNet18, 13},
		{workload.ResNet18, 15}, {workload.ResNet18, 17},
		{workload.AlexNet, 2}, {workload.AlexNet, 3}, {workload.AlexNet, 8},
		{workload.AlexNet, 11}, {workload.VGG16, 8}, {workload.VGG16, 17},
	} {
		task, err := workload.TaskByIndex(ref.model, ref.l)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	pool := []string{"gtx-1080", "gtx-1080-ti", "rtx-2070", "rtx-2080",
		"rtx-2080-ti", "titan-rtx", "rtx-3070", "rtx-3080"}
	if target != hwspec.TitanXp {
		pool[4] = hwspec.TitanXp // leave the target out, as TrainToolkit requires
	}
	tk, err := core.TrainToolkit(target, core.ToolkitConfig{
		TrainGPUs:  pool,
		PriorTasks: tasks,
		Prior: prior.TrainConfig{
			Dataset: prior.DatasetConfig{SamplesPerTask: 150, TopK: 16},
			Epochs:  200,
		},
		MetaGPUs: 2,
	}, rng.New(1234))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestGlimpseGolden pins the CLI's table for the four paths a task can
// take: tuned cold (and written to the cache and checkpoint), resumed
// from the checkpoint, served from the cache, and warm-started on another
// GPU from the first run's cache entries. A missing golden file
// is written from the current output and the test fails; delete
// testdata/glimpse.golden to re-record it.
func TestGlimpseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tuning sessions")
	}
	dir := t.TempDir()
	titan, neighbor := filepath.Join(dir, "titan.json"), filepath.Join(dir, "neighbor.json")
	smallToolkit(t, hwspec.TitanXp, titan)
	smallToolkit(t, "rtx-2080-ti", neighbor)
	cachePath := filepath.Join(dir, "cache.jsonl")
	common := []string{"-tasks", "7,17", "-budget", "32", "-workers", "2", "-cache", cachePath}

	var got bytes.Buffer
	for _, step := range []struct {
		name string
		args []string
	}{
		{"cold", []string{"-artifacts", titan, "-checkpoint", filepath.Join(dir, "a.ckpt")}},
		{"resumed", []string{"-artifacts", titan, "-checkpoint", filepath.Join(dir, "a.ckpt")}},
		{"cached", []string{"-artifacts", titan, "-checkpoint", filepath.Join(dir, "b.ckpt")}},
		{"warm", []string{"-artifacts", neighbor, "-gpu", "rtx-2080-ti"}},
	} {
		var stderr bytes.Buffer
		got.WriteString("## " + step.name + "\n")
		if err := run(append(append([]string(nil), common...), step.args...), &got, &stderr); err != nil {
			t.Fatalf("%s run: %v\n%s", step.name, err, stderr.String())
		}
	}

	golden := filepath.Join("testdata", "glimpse.golden")
	want, err := os.ReadFile(golden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; rerun to compare against it", golden)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s:\ngot:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
