package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark reports. The tables below
// are the single source BENCHMARK.json, -compare and the README glossary
// agree with (bench_test.go checks the first two).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's value by which an end-to-end
	// metric may worsen before -compare calls it a regression.
	Bound float64
	// Exact marks per-layer counts that repeat exactly for a fixed seed:
	// any difference between two result files is flagged, not tolerated.
	Exact bool
}

// endToEnd is what a user of the simulator stack sees. Every workload
// reports every one of them; none is ever zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "flit_hops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is one number per layer boundary, taken from outside through
// the Runner / OnPoint / RoundTripper seams and the layer probes. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "network.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "network.us_per_cycle", Unit: "us", Better: "lower"},
	{Name: "network.event_speedup", Unit: "ratio", Better: "higher"},
	{Name: "network.sim_cycles", Unit: "count", Better: "lower", Exact: true},
	{Name: "network.flit_hops", Unit: "count", Better: "higher", Exact: true},
	{Name: "network.skipped_cycles", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.result_crc32", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.construct_ms", Unit: "ms", Better: "lower"},
	{Name: "core.construct_ms_32x32", Unit: "ms", Better: "lower"},
	{Name: "core.plumbing_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "core.construct_share", Unit: "ratio", Better: "lower"},
	{Name: "core.key_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "core.alloc_kb_per_run", Unit: "KB", Better: "lower"},
	{Name: "sweep.dispatch_us_per_point", Unit: "us", Better: "lower"},
	{Name: "sweep.memo_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "sweep.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "sweep.tail_idle_s", Unit: "s", Better: "lower"},
	{Name: "sweep.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "sweep.cache_misses", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.store_put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.store_put_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.store_hit_us_p50", Unit: "us", Better: "lower"},
	{Name: "serve.store_open_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wire_encode_us_per_point", Unit: "us", Better: "lower"},
	{Name: "serve.wire_decode_us_per_point", Unit: "us", Better: "lower"},
	{Name: "serve.http_requests_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.http_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "serve.job_warm_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.job_warm_ms_p80", Unit: "ms", Better: "lower"},
	{Name: "serve.poll_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sim_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.cluster_tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.claim_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.complete_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.heartbeats", Unit: "count", Better: "lower"},
	{Name: "serve.leases", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.requeues", Unit: "count", Better: "lower"},
	{Name: "serve.cluster_resimulated", Unit: "count", Better: "lower"},
	{Name: "serve.cluster_pickup_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.worker_idle_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
