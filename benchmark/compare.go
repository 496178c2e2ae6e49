package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadSet(path string) (*setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict is -compare's finding on one (metric, workload) pair.
type verdict struct {
	Workload, Metric string
	Old, New         float64
	// Kind is "ok", "improved", "regressed" or "missing" for a bounded
	// metric, "changed" or "same" for an exact count, "info" otherwise.
	Kind string
}

// compareSets judges new against old: every end-to-end metric of every
// workload against its bound, the failed share, and what vanished; exact
// per-layer counts are only reported as changed or the same. The second
// result says whether new is acceptable.
func compareSets(old, new *setResult) ([]verdict, bool) {
	var vs []verdict
	ok := true
	names := make([]string, 0, len(old.Workloads))
	for n := range old.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, w := range names {
		o, n := old.Workloads[w], new.Workloads[w]
		if n == nil {
			vs = append(vs, verdict{Workload: w, Metric: "*", Kind: "missing"})
			ok = false
			continue
		}
		of, nf := float64(o.Failed)/float64(max(o.Attempted, 1)), float64(n.Failed)/float64(max(n.Attempted, 1))
		v := verdict{Workload: w, Metric: "failed_frac", Old: of, New: nf, Kind: "ok"}
		if nf > of || (o.Correct && !n.Correct) {
			v.Kind, ok = "regressed", false
		}
		vs = append(vs, v)
		for _, d := range endToEnd {
			ov, have := o.EndToEnd[d.Name]
			if !have {
				continue
			}
			v := verdict{Workload: w, Metric: d.Name, Old: ov.Value, Kind: "ok"}
			nv, have := n.EndToEnd[d.Name]
			v.New = nv.Value
			worse, better := v.New > v.Old*(1+d.Bound), v.New < v.Old*(1-d.Bound)
			if d.Better == "higher" {
				worse, better = v.New < v.Old*(1-d.Bound), v.New > v.Old*(1+d.Bound)
			}
			switch {
			case !have:
				v.Kind, ok = "missing", false
			case worse:
				v.Kind, ok = "regressed", false
			case better:
				v.Kind = "improved"
			}
			vs = append(vs, v)
		}
		for _, d := range perLayer {
			ov, have := o.PerLayer[d.Name]
			if !have {
				continue
			}
			v := verdict{Workload: w, Metric: d.Name, Old: ov.Value, Kind: "info"}
			nv, have := n.PerLayer[d.Name]
			v.New = nv.Value
			switch {
			case !have && n.PerLayer != nil:
				v.Kind, ok = "missing", false
			case !have:
				continue // new holds no traced pass at all: nothing to say
			case d.Exact && v.Old != v.New:
				v.Kind = "changed"
			case d.Exact:
				v.Kind = "same"
			}
			vs = append(vs, v)
		}
	}
	return vs, ok
}

func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var sets [2]*setResult
	for i, path := range []string{oldPath, newPath} {
		s, err := loadSet(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		sets[i] = s
	}
	vs, ok := compareSets(sets[0], sets[1])
	printVerdicts(stdout, vs)
	if !ok {
		fmt.Fprintln(stderr, "benchmark: regression, or a workload or metric vanished")
		return 1
	}
	return 0
}

// printVerdicts prints bounded metrics first, then exact counts, then
// the rest; every ratio names its base (the old value).
func printVerdicts(w io.Writer, vs []verdict) {
	bounds := map[string]float64{}
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	section := func(title string, keep func(verdict) bool) {
		fmt.Fprintln(w, title)
		for _, v := range vs {
			if !keep(v) {
				continue
			}
			line := fmt.Sprintf("  %-9s %-17s %-30s %14.6g -> %-14.6g", v.Kind, v.Workload, v.Metric, v.Old, v.New)
			if v.Old != 0 && v.Kind != "missing" {
				line += fmt.Sprintf(" %+7.2f%% of old %.6g", (v.New-v.Old)/v.Old*100, v.Old)
			}
			if b, bounded := bounds[v.Metric]; bounded {
				line += fmt.Sprintf(" (bound %.0f%%)", b*100)
			}
			fmt.Fprintln(w, line)
		}
	}
	exact := func(v verdict) bool { return v.Kind == "changed" || v.Kind == "same" }
	section("end-to-end metrics against their bounds:", func(v verdict) bool { return !exact(v) && v.Kind != "info" })
	section("exact counts (must not move in a host-speed change):", exact)
	section("per-layer metrics (no bound):", func(v verdict) bool { return v.Kind == "info" })
}
