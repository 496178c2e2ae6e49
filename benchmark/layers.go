package main

import "strings"

// constructCost is the warm construction cost in seconds of a network of
// that many nodes: the probed value, or the nearest probed size scaled
// by node count for a mesh the probes did not build.
func constructCost(constructMS map[int]float64, nodes int) float64 {
	near := 0
	for n := range constructMS {
		if near == 0 || abs(n-nodes) < abs(near-nodes) {
			near = n
		}
	}
	if near == 0 {
		return 0
	}
	return constructMS[near] / 1e3 * float64(nodes) / float64(near)
}

func abs(x int) int { return max(x, -x) }

// layerMetrics turns the spans of the traced rounds, and what the rounds
// read from the program, into the workload's per-layer numbers. Router
// and network can only be timed together from outside: their time is a
// core.Run span less the construction cost of its structure. Times are
// in calibrated seconds: a round's spans are divided by the slowdown the
// round measured, as constructMS (from the probes) already is.
func layerMetrics(def *workloadDef, spans []span, plain, traced []roundResult, constructMS map[int]float64) map[string]float64 {
	kids := map[int][]span{}
	byID := map[int]span{}
	var rounds []span
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
		byID[s.ID] = s
		if s.Name == "round" {
			rounds = append(rounds, s)
		}
	}

	var runS, nsPerHop, usPerCycle, share, util, tailIdle, reqs, kb, beats []float64
	var claimMS, completeMS []float64
	clientHTTP, workers := false, false
	for i, r := range rounds {
		if i >= len(traced) {
			break
		}
		secs := func(s span) float64 { return float64(s.End-s.Start) / 1e9 / r.Attrs["slowdown"] }
		var busy, cons, hops, cycles, jobs, nreq, bytes, nbeat float64
		var walk func(int)
		walk = func(id int) {
			for _, s := range kids[id] {
				switch {
				case s.Name == "core.Run":
					busy += secs(s)
					cons += constructCost(constructMS, int(s.Attrs["nodes"]))
					hops += s.Attrs["flit_hops"]
					cycles += s.Attrs["cycles"]
				case s.Name == "job":
					jobs++
				case s.Name == "worker":
					workers = true
				case strings.HasPrefix(s.Name, "http "):
					if byID[s.Parent].Name == "job" {
						clientHTTP = true
						nreq++
						bytes += s.Attrs["bytes"]
					}
					switch {
					case strings.HasSuffix(s.Name, "/cluster/claim"):
						claimMS = append(claimMS, secs(s)*1e3)
					case strings.HasSuffix(s.Name, "/cluster/complete"):
						completeMS = append(completeMS, secs(s)*1e3)
					case strings.HasSuffix(s.Name, "/cluster/heartbeat"):
						nbeat++
					}
				}
				walk(s.ID)
			}
		}
		walk(r.ID)

		wall := traced[i].CalWallS * float64(def.Workers)
		runS = append(runS, busy)
		util = append(util, busy/wall)
		tailIdle = append(tailIdle, wall-busy)
		beats = append(beats, nbeat)
		if sim := max(busy-cons, 0); busy > 0 {
			share = append(share, cons/busy)
			if hops > 0 {
				nsPerHop = append(nsPerHop, sim/hops*1e9)
			}
			if cycles > 0 {
				usPerCycle = append(usPerCycle, sim/cycles*1e6)
			}
		}
		if jobs > 0 {
			reqs = append(reqs, nreq/jobs)
			kb = append(kb, bytes/1024/jobs)
		}
	}

	all := append(append([]roundResult(nil), plain...), traced...)
	v := map[string]float64{
		"network.ns_per_flit_hop": median(nsPerHop),
		"network.us_per_cycle":    median(usPerCycle),
		"network.sim_cycles":      float64(all[0].SimCycles),
		"network.flit_hops":       all[0].FlitHops,
		"network.skipped_cycles":  float64(all[0].SkippedCycles),
		"core.result_crc32":       float64(all[0].CRC),
		"core.run_s":              median(runS),
		"core.construct_share":    median(share),
		"trace.spans":             float64(len(spans)),
	}
	// Rounds alternate untraced, traced: the ratio within each adjacent
	// pair cancels the box's drift between pairs.
	var overhead []float64
	for i := range traced {
		overhead = append(overhead, traced[i].wall(def)/plain[i].wall(def)-1)
	}
	v["trace.overhead_frac"] = median(overhead)
	if strings.HasPrefix(def.Name, "grid-") {
		v["sweep.worker_util"] = median(util)
		v["sweep.tail_idle_s"] = median(tailIdle)
	}
	if clientHTTP {
		v["serve.sim_share"] = median(util)
		v["serve.http_requests_per_job"] = median(reqs)
		v["serve.http_kb_per_job"] = median(kb)
	}
	if workers {
		v["serve.worker_idle_frac"] = 1 - median(util)
		v["serve.claim_ms_p50"] = median(claimMS)
		v["serve.complete_ms_p50"] = median(completeMS)
		v["serve.heartbeats"] = median(beats)
	}
	counters := map[string][]float64{}
	var jobMS []float64
	for _, rr := range all {
		for k, x := range rr.Counters {
			counters[k] = append(counters[k], x)
		}
		jobMS = append(jobMS, rr.JobMS...)
	}
	for k, xs := range counters {
		v[k] = median(xs)
	}
	if len(jobMS) > 0 {
		// p80 is the highest percentile that still has ten of the ~50
		// samples of one run beyond it.
		v["serve.job_warm_ms_p50"] = quantile(jobMS, 0.5)
		v["serve.job_warm_ms_p80"] = quantile(jobMS, 0.8)
	}
	return v
}
