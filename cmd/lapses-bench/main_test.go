package main

import (
	"strings"
	"testing"
)

func snap(entries ...entry) snapshot {
	return snapshot{Schema: 5, GOMAXPROCS: 4, Entries: entries}
}

func ent(name string, ns, allocs float64) entry {
	return entry{Name: name, NsPerOp: ns, AllocsPerOp: allocs, Gomaxprocs: 4}
}

// A baseline entry the current run no longer measures is dropped perf
// coverage: the gate must fail unless -allow-missing says the removal was
// intentional.
func TestCompareMissingBaselineEntryFailsGate(t *testing.T) {
	base := snap(ent("sim/a", 100, 10), ent("sim/retired", 100, 10))
	cur := snap(ent("sim/a", 100, 10))

	var out strings.Builder
	if compareSnapshots(&out, cur, base, 0.25, false) {
		t.Errorf("gate passed with a baseline entry missing from the run:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") || !strings.Contains(out.String(), "sim/retired") {
		t.Errorf("missing entry not named in output:\n%s", out.String())
	}

	out.Reset()
	if !compareSnapshots(&out, cur, base, 0.25, true) {
		t.Errorf("-allow-missing did not tolerate the retired entry:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allowed by -allow-missing") {
		t.Errorf("allowed removal not reported as such:\n%s", out.String())
	}
}

// An entry new in this snapshot has no baseline to regress against; it
// must warn without failing, or every bench-suite addition would need a
// baseline regenerated in the same commit.
func TestCompareNewEntryWarnsOnly(t *testing.T) {
	base := snap(ent("sim/a", 100, 10))
	cur := snap(ent("sim/a", 100, 10), ent("sim/new", 100, 10))

	var out strings.Builder
	if !compareSnapshots(&out, cur, base, 0.25, false) {
		t.Errorf("gate failed on an entry new in this snapshot:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "warning: no baseline entry") {
		t.Errorf("new entry not warned about:\n%s", out.String())
	}
}

// The regression gate itself: past-tolerance deltas fail, within-tolerance
// deltas pass.
func TestCompareRegressionGate(t *testing.T) {
	base := snap(ent("sim/a", 100, 10))

	var out strings.Builder
	if compareSnapshots(&out, snap(ent("sim/a", 200, 10)), base, 0.25, false) {
		t.Errorf("100%% ns/op regression passed a 25%% gate:\n%s", out.String())
	}
	out.Reset()
	if compareSnapshots(&out, snap(ent("sim/a", 100, 20)), base, 0.25, false) {
		t.Errorf("100%% allocs/op regression passed a 25%% gate:\n%s", out.String())
	}
	out.Reset()
	if !compareSnapshots(&out, snap(ent("sim/a", 110, 10)), base, 0.25, false) {
		t.Errorf("10%% ns/op delta failed a 25%% gate:\n%s", out.String())
	}
}
