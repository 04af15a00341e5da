// Command perfbench is the repository benchmark. It drives the serving
// paths of this OCTOPUS reproduction through their exported calls only,
// times every answer, and checks every answer against a brute-force
// oracle at the epoch the answer reports.
//
//	perfbench --workload live-sharded --seed 1 --seconds 10 --trace 0
//
// The workloads (BENCHMARK.json gives each one's why-line):
//
//	live-sharded  query.Pipeline over a K=4 shard.Router with the result cache
//	dist-tcp      dist shard servers and router over TCP, one closed-loop client
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics. With --trace 1 the run is split in an untraced
// half and a traced half; the last line then holds the per-layer metrics
// of the traced half and the tracing overhead, and the spans are written
// to the --out directory. The lines before the last one give the machine
// facts and every metric with its sample count, so that runs on two
// commits can be checked for comparability.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	Seed     int64
	Duration time.Duration
	// Small swaps each workload's dataset for the smallest one and does
	// one set-up instead of several; the package tests use it.
	Small bool
	// Tracer, when non-nil, records spans around every call the workload
	// makes into a layer.
	Tracer *tracer
}

// setupReps is how often a run builds its system; setup_s is the median.
const setupReps = 3

func (c config) setupReps() int {
	if c.Small {
		return 1
	}
	return setupReps
}

// workloadFunc builds a workload's system, set-up metrics included.
type workloadFunc func(cfg config) (*system, error)

// system is a built workload, ready to measure.
type system struct {
	setup  metric // setup_s
	heap   metric // heap_mb
	layers []metric
	// measure runs the workload for cfg.Duration; a traced run calls it
	// twice, untraced and traced.
	measure func(cfg config) (*outcome, error)
	close   func()
}

var workloads = map[string]workloadFunc{
	"live-sharded": newLiveSharded,
	"dist-tcp":     newDistTCP,
}

func main() {
	name := flag.String("workload", "", "workload: live-sharded or dist-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()

	wf, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	cfg := config{Seed: *seed, Duration: time.Duration(*seconds * float64(time.Second))}
	res, err := run(wf, cfg, *traceFlag == 1, *name, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), res.procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	for _, l := range res.notes {
		fmt.Printf("# %s\n", l)
	}
	for _, m := range res.printed {
		fmt.Printf("%-38s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	line, err := json.Marshal(res.final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is what main prints: every metric with its sample count, then
// the contract's final line.
type report struct {
	procs   int // GOMAXPROCS while the workload ran
	notes   []string
	printed []metric
	final   finalLine
	check   checker // every check of the run
}

type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run builds the workload and measures it: one untraced phase, plus a
// traced phase when traced is set (each then gets half the time).
func run(wf workloadFunc, cfg config, traced bool, name, outDir string) (*report, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
		cfg.Tracer = tr
	}
	sys, err := wf(cfg)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	procs := runtime.GOMAXPROCS(0)

	plain := cfg
	plain.Tracer = nil
	if traced {
		plain.Duration /= 2
	}
	base, err := sys.measure(plain)
	if err != nil {
		return nil, err
	}
	rep := &report{procs: procs, notes: base.notes}
	if base.check.firstBad != "" {
		rep.notes = append(rep.notes, fmt.Sprintf("%d contract violations, first: %s", base.check.violations, base.check.firstBad))
	}
	all := append([]metric{sys.setup, sys.heap}, base.e2e...)
	if !traced {
		rep.printed = append(all, failedFrac(&base.check))
		rep.check = base.check
		rep.final = finalLine{
			Correct:   base.check.violations == 0,
			Attempted: base.check.attempted,
			Failed:    base.check.failed(),
			Metrics:   metricMap(all),
		}
		return rep, nil
	}

	cfg.Duration = plain.Duration
	tracedOut, err := sys.measure(cfg)
	if err != nil {
		return nil, err
	}
	layers := append(append([]metric{}, sys.layers...), tracedOut.layers...)
	layers = append(layers, metric{Name: "bench.trace_overhead_frac", Unit: "ratio",
		Value: overheadFrac(base.meanLatency, tracedOut.meanLatency), N: 2})
	layers = completeLayers(layers)
	rep.notes = append(rep.notes, tracedOut.notes...)
	rep.printed = append(append(all, failedFrac(&base.check)), layers...)
	var chk checker
	chk.add(base.check)
	chk.add(tracedOut.check)
	rep.check = chk
	rep.final = finalLine{
		Correct:   chk.violations == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed(),
		Metrics:   metricMap(layers),
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.Seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", tr.len(), path))
	return rep, nil
}

// overheadFrac is the traced phase's mean query latency over the
// untraced phase's, minus one.
func overheadFrac(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return traced/untraced - 1
}

func metricMap(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// completeLayers orders the per-layer metrics as layerMetrics lists them
// and adds every one the workload does not exercise with the value 0, so
// each traced run prints the full set.
func completeLayers(got []metric) []metric {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		m, ok := byName[lm.name]
		if !ok {
			m = metric{Name: lm.name, Unit: lm.unit}
		}
		out = append(out, m)
	}
	return out
}
