package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with the count of samples behind it.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// outcome is one measured phase of a workload.
type outcome struct {
	e2e    []metric // the end-to-end metrics except setup_s and heap_mb
	layers []metric // per-layer metrics (traced phase only)
	check  checker
	// meanLatency is the mean of every query latency, in µs: the base of
	// bench.trace_overhead_frac.
	meanLatency float64
	notes       []string
}

// layerMetric is one per-layer metric. README.md gives, for each, the
// end-to-end metric it should move and the workload it should move it on.
type layerMetric struct {
	name, unit string
}

// layerMetrics is the per-layer set every traced run prints, in order.
var layerMetrics = []layerMetric{
	{"meshgen.build_s", "s"},
	{"shard.new_s", "s"},
	{"dist.cluster_s", "s"},
	{"core.shard_probe_us", "us"},
	{"core.shard_crawl_us", "us"},
	{"sim.deform_ms", "ms"},
	{"mesh.publish_ms", "ms"},
	{"mesh.dirty_verts_per_step", "count"},
	{"shard.range_fanout", "count"},
	{"shard.knn_scanned", "count"},
	{"shard.knn_widenings", "count"},
	{"shard.overlap_frac", "ratio"},
	{"shard.query_clear_p50_us", "us"},
	{"shard.query_overlap_p50_us", "us"},
	{"query.cache_hit_rate", "ratio"},
	{"query.cache_invalidations_per_step", "count"},
	{"query.pipeline_overhead_us", "us"},
	{"query.stale_epochs_mean", "count"},
	{"maintain.slice_ms_per_tick", "ms"},
	{"maintain.fallback_frac", "ratio"},
	{"dist.range_fanout", "count"},
	{"dist.knn_scanned", "count"},
	{"dist.skew_requeries_per_query", "count"},
	{"dist.retries", "count"},
	{"dist.req_bytes_per_query", "B"},
	{"dist.resp_bytes_per_query", "B"},
	{"dist.publish_bytes_per_step", "B"},
	{"dist.server_us", "us"},
	{"dist.router_self_us", "us"},
	{"bench.trace_overhead_frac", "ratio"},
}

// latencies collects durations for percentile reporting.
type latencies []time.Duration

// pct returns the nearest-rank q-quantile (0 < q <= 1); 0 when empty.
func (l latencies) pct(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func (l latencies) sum() time.Duration {
	var t time.Duration
	for _, d := range l {
		t += d
	}
	return t
}

func (l latencies) mean() time.Duration {
	if len(l) == 0 {
		return 0
	}
	return l.sum() / time.Duration(len(l))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowedPct is the median, over consecutive windows of the samples in
// the order they were taken, of each window's q-quantile. Each window
// holds at least ten samples beyond the quantile; a run too short for
// three windows gives the plain quantile. A burst of interference from
// outside the program then moves one window, not the reported value.
func (l latencies) windowedPct(q float64) time.Duration {
	minWindow := int(math.Ceil(10 / (1 - q)))
	w := min(len(l)/minWindow, 9)
	if w < 3 {
		return l.pct(q)
	}
	vals := make([]float64, w)
	size := len(l) / w
	for i := range vals {
		vals[i] = float64(l[i*size : (i+1)*size].pct(q))
	}
	return time.Duration(median(vals))
}

// latencyMetrics gives the p50 and the windowed high percentile of one
// query kind. The name says p99 (or p90); the sample count printed beside
// it tells whether the run had at least ten samples beyond that
// percentile.
func latencyMetrics(prefix string, l latencies, hiName string, hi float64, unit func(time.Duration) float64, unitName string) []metric {
	return []metric{
		{Name: prefix + "_p50_" + unitName, Unit: unitName, Value: unit(l.pct(0.5)), N: len(l)},
		{Name: prefix + "_" + hiName + "_" + unitName, Unit: unitName, Value: unit(l.windowedPct(hi)), N: len(l)},
	}
}

// queryMetrics assembles the end-to-end metrics every workload prints.
// step holds the per-step hold times, wall the serving wall, simWall the
// writer's span over its steps.
func queryMetrics(rng, knn, step latencies, queries int, wall time.Duration, steps int, simWall time.Duration) []metric {
	out := latencyMetrics("step", step, "p90", 0.9, ms, "ms")
	out = append(out, latencyMetrics("range", rng, "p99", 0.99, us, "us")...)
	out = append(out, latencyMetrics("knn", knn, "p99", 0.99, us, "us")...)
	out = append(out,
		metric{Name: "qps", Unit: "1/s", Value: ratio(float64(queries), wall.Seconds()), N: queries},
		metric{Name: "sim_steps_per_s", Unit: "1/s", Value: ratio(float64(steps), simWall.Seconds()), N: steps},
	)
	return out
}

// failedFrac is printed beside the end-to-end metrics. It is not part of
// the final line, whose attempted and failed fields carry it, because it
// is 0 on a run that meets the benchmark's contract.
func failedFrac(chk *checker) metric {
	return metric{Name: "failed_frac", Unit: "ratio",
		Value: ratio(float64(chk.failed()), float64(chk.attempted)), N: int(chk.attempted)}
}

// heapMB collects garbage and returns the live heap in MiB.
func heapMB() metric {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return metric{Name: "heap_mb", Unit: "MiB", Value: float64(ms.HeapAlloc) / (1 << 20), N: 1}
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}
