package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the single
// source for the names, units and directions BENCHMARK.json lists; the smoke
// test checks the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator sees: how long a run
// takes to set up, how much host time one simulated request costs, and how
// much host memory the process holds. Each is the median over the
// repetitions of one run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ns_per_req", "ns", "lower"},
	{"heap_sys_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics, named <module>.<metric> after the
// repo's packages. The first block holds work counts and ratios taken from
// the untraced run's public Stats() deltas (exact for a fixed seed); the
// second holds host time from the traced replay.
var perLayer = []metricDef{
	{"hil.lines_per_req", "count", "lower"},
	{"icl.hit_ratio", "ratio", "higher"},
	{"icl.evictions_per_req", "count", "lower"},
	{"icl.dirty_evictions_per_req", "count", "lower"},
	{"icl.readahead_hit_ratio", "ratio", "higher"},
	{"ftl.waf", "ratio", "lower"},
	{"ftl.gc_runs_per_kreq", "count", "lower"},
	{"ftl.migrated_subs_per_req", "count", "lower"},
	{"ftl.partial_remaps_per_req", "count", "lower"},
	{"fil.plans_per_req", "count", "lower"},
	{"fil.certified_plan_ratio", "ratio", "higher"},
	{"fil.certified_read_ratio", "ratio", "higher"},
	{"fil.dep_stalls_per_req", "count", "lower"},
	{"fil.cert_disarms", "count", "lower"},
	{"nand.reads_per_req", "count", "lower"},
	{"nand.programs_per_req", "count", "lower"},
	{"nand.erases_per_kreq", "count", "lower"},
	{"nand.multiplane_ratio", "ratio", "higher"},
	{"nand.energy_j", "J", "lower"},
	{"dma.descriptors_per_req", "count", "lower"},
	{"dma.entries_per_descriptor", "count", "higher"},
	{"dma.bytes_per_req", "B", "lower"},
	{"dram.accesses_per_req", "count", "lower"},
	{"dram.row_hit_ratio", "ratio", "higher"},
	{"cpu.instr_per_req", "count", "lower"},
	{"cpu.util", "ratio", "lower"},
	{"host.cpu_util", "ratio", "lower"},
	{"sim.events_per_req", "count", "lower"},
	{"sim.nand_domain_event_share", "ratio", "lower"},
	{"sim.host_ns_per_event", "ns", "lower"},
	{"core.sim_iops", "1/s", "higher"},
	{"core.sim_bw_mbps", "MB/s", "higher"},
	{"core.sim_lat_p50_us", "us", "lower"},
	{"core.sim_lat_p99_us", "us", "lower"},
	{"core.sim_lat_p999_us", "us", "lower"},
	{"core.sim_s_per_wall_s", "ratio", "higher"},
	{"core.batch_windows_per_kreq", "count", "lower"},
	{"core.allocs_per_req", "count", "lower"},
	{"core.alloc_bytes_per_req", "B", "lower"},
	{"core.failed_req_ratio", "ratio", "lower"},
	{"refdata.model_accuracy_pct", "%", "higher"},

	{"hil.host_ns_per_req", "ns", "lower"},
	{"icl.host_ns_per_req", "ns", "lower"},
	{"ftl.host_ns_per_req", "ns", "lower"},
	{"fil.host_ns_per_req", "ns", "lower"},
	{"nand.host_ns_per_req", "ns", "lower"},
	{"dma.host_ns_per_req", "ns", "lower"},
	{"dram.host_ns_per_req", "ns", "lower"},
	{"cpu.host_ns_per_req", "ns", "lower"},
	{"host.host_ns_per_req", "ns", "lower"},
	{"sim.host_ns_per_req", "ns", "lower"},
	{"workload.host_ns_per_req", "ns", "lower"},
	{"icl.read_ns_per_call", "ns", "lower"},
	{"icl.write_ns_per_call", "ns", "lower"},
	{"icl.fill_ns_per_call", "ns", "lower"},
	{"ftl.write_ns_per_call", "ns", "lower"},
	{"ftl.lookup_ns_per_call", "ns", "lower"},
	{"fil.execute_ns_per_call", "ns", "lower"},
	{"fil.readsubs_ns_per_call", "ns", "lower"},
	{"nand.read_ns_per_call", "ns", "lower"},
	{"nand.program_ns_per_call", "ns", "lower"},
	{"nand.erase_ns_per_call", "ns", "lower"},
	{"core.self_ns_per_req", "ns", "lower"},
	{"core.replay_coverage", "ratio", "higher"},
	{"core.replay_count_skew", "ratio", "lower"},
	{"core.trace_overhead_ns_per_span", "ns", "lower"},
}

// quartiles returns the first quartile, median and third quartile of vs
// with the "exclusive" method of Python's statistics.quantiles(n=4), so the
// spreads printed here are the ones the regression driver computes. Fewer
// than two samples have no spread: all three are the sample itself.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
