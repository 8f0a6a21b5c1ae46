package main

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestSvcPlanDeterministic(t *testing.T) {
	a, b := svcPlan(7, svcJobs), svcPlan(7, svcJobs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different plans")
	}
	if reflect.DeepEqual(a, svcPlan(8, svcJobs)) {
		t.Fatal("seeds 7 and 8 gave the same plan")
	}
}

func TestSvcPlanShape(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		plan := svcPlan(seed, svcJobs)
		if len(plan) != svcJobs {
			t.Fatalf("seed %d: %d jobs, want %d", seed, len(plan), svcJobs)
		}
		if plan[0].hit {
			t.Fatalf("seed %d: the first job is a resubmission", seed)
		}
		seen := map[string]bool{}
		kinds := map[string]int{}
		hits, fresh := 0, 0
		for i, s := range plan {
			if s.hit {
				hits++
				if !seen[string(s.spec)] {
					t.Fatalf("seed %d job %d: resubmits a spec not submitted before", seed, i)
				}
				continue
			}
			fresh++
			if seen[string(s.spec)] {
				t.Fatalf("seed %d job %d: fresh spec %s repeats", seed, i, s.spec)
			}
			seen[string(s.spec)] = true
			var spec map[string]any
			if err := json.Unmarshal(s.spec, &spec); err != nil {
				t.Fatal(err)
			}
			if sd := spec["seed"].(float64); sd < 1 || sd > 1000 || spec["scale"] != "quick" || spec["parallel"] != 1.0 {
				t.Fatalf("seed %d job %d: spec %s", seed, i, s.spec)
			}
			for _, k := range svcKinds {
				if spec[k[0]] == k[1] {
					kinds[k[1]]++
				}
			}
		}
		if share := float64(hits) / float64(len(plan)); share < 0.4 || share > 0.6 {
			t.Errorf("seed %d: hit share %.2f outside 0.4-0.6", seed, share)
		}
		// Kinds come in shuffled rounds, so no kind is more than one
		// fresh job ahead of another.
		lo, hi := fresh/len(svcKinds), (fresh+len(svcKinds)-1)/len(svcKinds)
		for _, k := range svcKinds {
			if n := kinds[k[1]]; n < lo || n > hi {
				t.Errorf("seed %d: %s appears %d times fresh, want %d..%d", seed, k[1], n, lo, hi)
			}
		}
	}
}
