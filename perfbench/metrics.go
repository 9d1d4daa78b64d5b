package main

import (
	"math"
	"sort"

	"tmcc/internal/mc"
)

// metricSpec names one reported metric. BENCHMARK.json lists the same
// names, units and directions; TestBenchmarkJSONMatchesSpecs keeps the two
// in step.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd is what an untraced run reports: what a user of the simulator
// waits for and pays, plus how close the simulated numbers are to the
// paper's. Times are host time unless the name says sim_.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower"},         // host seconds per workload pass, set-up included
	{"setup_s", "s", "lower"},        // host seconds of construction per pass
	{"ns_per_access", "ns", "lower"}, // host ns per simulated access
	{"alloc_mb", "MB", "lower"},      // bytes allocated per pass
	{"max_rss_mb", "MB", "lower"},    // peak resident memory of a pass process
	{"paper_err_pct", "%", "lower"},  // simulated values vs the paper's (mean abs. rel. error)
	{"sim_speedup", "x", "higher"},   // simulated TMCC speed-up the error is stated beside
}

// kinds are the four memory-controller designs, in mc.Kind order.
var kinds = []mc.Kind{mc.Uncompressed, mc.Compresso, mc.OSInspired, mc.TMCC}

// perLayer is what a traced run reports: one line per layer measurement,
// each timed from outside by calling the layer's public functions.
var perLayer = func() []metricSpec {
	s := []metricSpec{
		// exp/engine: scheduling and memoization of the suite's runs.
		{"engine.runs", "count", "lower"},
		{"engine.memo_hits", "count", "higher"},
		{"engine.hit_ratio", "ratio", "higher"},
		{"engine.run_ms_p50", "ms", "lower"},
		{"engine.run_ms_p90", "ms", "lower"},
		{"engine.busy_frac", "ratio", "higher"},
		// Construction.
		{"sim.build_ms_p50", "ms", "lower"},
		{"sim.build_ms_p90", "ms", "lower"},
		{"sim.build_alloc_mb", "MB", "lower"},
		{"pagetable.build_address_space_ms", "ms", "lower"},
		{"workload.sizemodel_ms", "ms", "lower"},
		// Codec.
		{"memdeflate.compress_ns", "ns", "lower"},
		{"memdeflate.decompress_ns", "ns", "lower"},
		{"memdeflate.ratio", "x", "higher"},
		// Trace generation.
		{"workload.trace_next_ns.gap30", "ns", "lower"},
		{"workload.trace_next_ns.gap132", "ns", "lower"},
		// Access-path components.
		{"tlb.lookup_ns", "ns", "lower"},
		{"pagetable.walk_ns", "ns", "lower"},
		{"cache.access_ns", "ns", "lower"},
		{"cache.insert_ns", "ns", "lower"},
		{"ctecache.buffer_insert_ns", "ns", "lower"},
		{"ctecache.buffer_lookup_ns", "ns", "lower"},
		{"ctecache.lookup_ns", "ns", "lower"},
		{"dram.read_ns", "ns", "lower"},
		{"dram.write_ns", "ns", "lower"},
		// Simulated work per 1k measured accesses (exactly repeatable).
		{"sim.tlb_miss", "count/1kacc", "lower"},
		{"sim.walks", "count/1kacc", "lower"},
		{"mc.ctecache_hit_rate", "ratio", "higher"},
		{"mc.ml2_reads", "count/1kacc", "lower"},
		{"mc.ml1_to_ml2", "count/1kacc", "lower"},
		{"mc.ml2_to_ml1", "count/1kacc", "lower"},
		{"dram.reads", "count/1kacc", "lower"},
		{"dram.writes", "count/1kacc", "lower"},
		{"dram.row_hit_rate", "ratio", "higher"},
		// The benchmark itself.
		{"trace.overhead_s", "s", "lower"},
		{"failed_frac", "ratio", "lower"},
	}
	for _, k := range kinds {
		s = append(s,
			metricSpec{"mc.new_ms." + k.String(), "ms", "lower"},
			metricSpec{"sim.step_ns." + k.String(), "ns", "lower"})
	}
	return s
}()

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (no work of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// meanAbsRelErrPct is the mean absolute relative error of simulated values
// against paper values, in percent.
func meanAbsRelErrPct(pairs [][2]float64) float64 {
	var sum float64
	for _, p := range pairs {
		sum += math.Abs(p[0]-p[1]) / p[1]
	}
	return 100 * sum / float64(len(pairs))
}

// geomean of positive values; 0 for none.
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range v {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(v)))
}
