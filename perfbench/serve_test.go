package main

import (
	"fmt"
	"testing"

	"github.com/neuralcompile/glimpse/internal/hwspec"
)

func TestServeJobsShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		clients, err := serveJobs(seed)
		if err != nil {
			t.Fatal(err)
		}
		owner := map[string]string{}
		pairs, hits := map[string]bool{}, 0
		for tenant, specs := range clients {
			if len(specs) != jobsPerClient {
				t.Fatalf("seed %d: %s has %d jobs", seed, tenant, len(specs))
			}
			for i, spec := range specs {
				task := fmt.Sprintf("%s/%d", spec.Model, spec.TaskIndex)
				if o, ok := owner[task]; ok && o != tenant {
					t.Fatalf("seed %d: task %s shared by %s and %s", seed, task, o, tenant)
				}
				owner[task] = tenant
				if spec.GPU == hwspec.RTX3090 && i < coldAt {
					t.Fatalf("seed %d: %s job %d is rtx-3090 before the cold key", seed, tenant, i)
				}
				key := pairKey(spec)
				if pairs[key] {
					hits++
				} else if tenant == "beta" && (i == coldAt || i == coldAt+1) && spec.GPU != hwspec.TitanXp {
					t.Fatalf("seed %d: beta job %d is not a new titan-xp pair", seed, i)
				}
				pairs[key] = true
			}
			if tenant == "alpha" && specs[coldAt].GPU != hwspec.RTX3090 {
				t.Fatalf("seed %d: alpha job %d is not the cold key", seed, coldAt)
			}
		}
		t.Logf("seed %d: %d pairs, %d repeats", seed, len(pairs), hits)
	}
}
