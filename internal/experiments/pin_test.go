package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"lapses/internal/core"
)

// pinSeed is the seed of TestRegistryOutputPinned's runs.
const pinSeed = 1

// pinRun is kneeRun with a latency that grows by one cycle per
// replication, so the pinned mean/stderr columns are not all zero.
func pinRun(c core.Config) (core.Result, error) {
	res, err := kneeRun(c)
	res.AvgLatency += float64((c.Seed - pinSeed) / repSeedStride)
	return res, err
}

// TestRegistryOutputPinned runs every registry experiment on a scripted
// simulator at Quick fidelity and compares three outputs byte for byte
// with the fixtures in testdata/: the rendered table (<name>.txt) and,
// for an experiment with a CSV form, its CSV (<name>.csv) and its CSV at
// three replications (<name>.reps3.csv). Any change to how an experiment
// is run, rendered, tabulated or replicated shows here first.
func TestRegistryOutputPinned(t *testing.T) {
	t.Parallel()
	r := Runner{Fidelity: Quick, Seed: pinSeed, Workers: 2, run: pinRun}
	check := func(file string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: output differs from the fixture\n--- got ---\n%s\n--- want ---\n%s", file, got, want)
		}
	}
	for _, name := range Names() {
		table, csv1, err := experimentOutput(context.Background(), r, name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name+".txt", table)
		if csv1 == nil {
			continue
		}
		check(name+".csv", csv1)
		_, csv3, err := experimentOutput(context.Background(), r, name, 3)
		if err != nil {
			t.Fatalf("%s at 3 reps: %v", name, err)
		}
		check(name+".reps3.csv", csv3)
	}
}
