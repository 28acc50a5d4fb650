package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/neuralcompile/glimpse/internal/acq"
	"github.com/neuralcompile/glimpse/internal/hwspec"
	"github.com/neuralcompile/glimpse/internal/prior"
	"github.com/neuralcompile/glimpse/internal/rng"
	"github.com/neuralcompile/glimpse/internal/workload"
)

func TestToolkitSaveLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	tk := smallToolkit(t)
	path := filepath.Join(t.TempDir(), "toolkit.json")
	if err := tk.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadToolkit(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TargetName != tk.TargetName {
		t.Fatalf("target %q want %q", restored.TargetName, tk.TargetName)
	}

	// The restored artifacts behave identically: same Blueprint vector,
	// same prior distributions, same acquisition scores.
	spec := hwspec.MustByName(tk.TargetName)
	a, b := tk.Emb.Embed(spec), restored.Emb.Embed(spec)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("embedding differs at %d: %g vs %g", i, a[i], b[i])
		}
	}
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := tk.Prior.Distributions(task, spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := restored.Prior.Distributions(task, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.Params {
		if math.Abs(d1.Params[i]-d2.Params[i]) > 1e-12 {
			t.Fatalf("prior params differ at %d", i)
		}
	}
	st := acq.Stats{Mean: 1.1, Std: 0.2, Best: 1, Progress: 0.5, PriorLogProb: -4}
	if tk.Acq.Score(st, a) != restored.Acq.Score(st, b) {
		t.Fatal("acquisition scores differ after round trip")
	}
}

func TestLoadToolkitErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadToolkit(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(bad); err == nil {
		t.Fatal("corrupt file accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"version":1,"target":"titan-xp"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(empty); err == nil {
		t.Fatal("artifact-less file accepted")
	}
	wrongVer := filepath.Join(dir, "ver.json")
	if err := os.WriteFile(wrongVer, []byte(`{"version":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadToolkit(wrongVer); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestLoadOrTrainToolkit: a missing artifact directory is created and the
// trained toolkit saved into it; an artifact for another target is not
// served but retrained over; a matching artifact loads without training.
func TestLoadOrTrainToolkit(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	task, err := workload.TaskByIndex(workload.ResNet18, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ToolkitConfig{
		TrainGPUs:  []string{"gtx-1080", "rtx-2080"},
		PriorTasks: []workload.Task{task},
		MetaTasks:  []workload.Task{task},
		MetaGPUs:   1,
		Prior:      prior.TrainConfig{Dataset: prior.DatasetConfig{SamplesPerTask: 40, TopK: 8}, Epochs: 20},
		Meta:       acq.MetaConfig{Steps: 2, Epochs: 20},
	}
	path := filepath.Join(t.TempDir(), "artifacts", "toolkit.json")

	tk, loaded, err := loadOrTrainToolkit(path, hwspec.TitanXp, cfg, rng.New(1))
	if err != nil || loaded || tk.TargetName != hwspec.TitanXp {
		t.Fatalf("first call: loaded=%v err=%v", loaded, err)
	}
	if saved, err := LoadToolkit(path); err != nil || saved.TargetName != hwspec.TitanXp {
		t.Fatalf("artifact not saved into the created directory: %v", err)
	}

	other, loaded, err := loadOrTrainToolkit(path, "rtx-3090", cfg, rng.New(1))
	if err != nil || loaded || other.TargetName != "rtx-3090" {
		t.Fatalf("wrong-target artifact: loaded=%v err=%v", loaded, err)
	}
	again, loaded, err := loadOrTrainToolkit(path, "rtx-3090", cfg, rng.New(1))
	if err != nil || !loaded || again.TargetName != "rtx-3090" {
		t.Fatalf("retrained artifact: loaded=%v err=%v", loaded, err)
	}
}
