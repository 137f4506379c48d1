package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsSmallScale drives every experiment at reduced scale;
// the experiment correctness itself is covered in internal/experiments.
// The pipeline and obs experiments record BENCH_pipeline.json and
// BENCH_obs.json, so the test runs in a scratch directory.
func TestAllExperimentsSmallScale(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, exp := range []string{"fig5.7", "timing", "fig5.8", "fig5.9", "ablation", "blocksize", "cpusweep", "updates", "pipeline", "obs"} {
		if err := run(context.Background(), exp, 2000, 1, 0, 7, 2); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	for _, name := range []string{"pipeline", "obs"} {
		f, err := os.Open("BENCH_" + name + ".json")
		if err != nil {
			t.Fatalf("%s experiment did not record its result: %v", name, err)
		}
		e, err := experiments.DecodeEnvelope(f)
		f.Close()
		if err != nil || e.Experiment != name {
			t.Fatalf("BENCH_%s.json is not a %s envelope: %v", name, name, err)
		}
	}
}

// TestGateNeedsBaselines runs `-exp gate` where no committed results
// exist: it must fail on the missing baselines and write no file.
func TestGateNeedsBaselines(t *testing.T) {
	t.Chdir(t.TempDir())
	err := run(context.Background(), "gate", 300, 1, 0, 7, 2)
	if err == nil || !strings.Contains(err.Error(), "gates failed") {
		t.Fatalf("gate without baselines: err = %v, want a gate failure", err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("gate wrote %d files", len(entries))
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run(context.Background(), "nope", 100, 1, 0, 7, 0); err != nil {
		if err.Error() != `unknown experiment "nope"` {
			t.Fatalf("unexpected error: %v", err)
		}
	} else {
		t.Fatal("unknown experiment succeeded")
	}
}
