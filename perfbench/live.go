package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"octopus/internal/core"
	"octopus/internal/geom"
	"octopus/internal/maintain"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/workload"
)

// live-sharded: query.Pipeline over a K=4 shard.Router with an OCTOPUS
// engine per shard, one query worker, the result cache on and SLO control
// off. Two of three queries are range boxes drawn Zipf(liveZipf) from a
// fixed pool that fits in the cache; the third is a fresh kNN probe. A
// repeated kNN probe would hit nearly always (its ball is small and
// rarely invalidated), which would leave the engine's kNN path
// unmeasured.
//
// The run is a series of Pipeline.Runs of liveRoundQueries queries, in
// each of which the writer publishes exactly liveRoundSteps slabWave
// steps, liveTick apart. Fixing the steps per query breaks a feedback
// loop a free-running writer has with the cache: faster serving means
// fewer steps per query, more hits and faster serving, which left the
// figures of a run to chance. The result cache lives for one Run.
const (
	liveShards       = 4
	liveRangePool    = 256
	liveCache        = 1024 // entries; holds the whole pool
	liveZipf         = 1.1
	liveSel          = 0.001
	livePoolSeed     = 1
	liveRoundQueries = 600
	// liveRoundSteps is 3% of a round's queries: with one worker each
	// step's gate hold delays at most one query, so the gate-delayed
	// queries stay well above the 1% the p99 looks at.
	liveRoundSteps = 18
	liveTick       = 2 * time.Millisecond
	liveWarmRounds = 3
	// knnKMin and knnKMax bound the k of the workloads' kNN probes.
	knnKMin = 8
	knnKMax = 32
)

type liveSharded struct {
	sm     *shard.Mesh
	rt     *shard.Router
	warp   *slabWave
	replay *replayer
	boxes  []geom.AABB
	gen    *workload.Generator // fresh kNN probes
	rnd    *rand.Rand
	zipf   *rand.Zipf
	// warm holds the warm-up rounds' checks until the first measured run
	// reports them.
	warm checker

	// Writer-goroutine state, read after Run returns.
	steps int
	cur   stepRec
	log   []stepRec
	tr    *tracer
}

// stepRec is one published step: the Deform call and the deformer
// inside it.
type stepRec struct {
	callStart, callEnd, defStart, defEnd time.Time
}

// timedMesh is the pipeline's view of the sharded mesh: every method of
// *shard.Mesh, with Deform timed. Embedding forwards each optional
// interface the pipeline looks for.
type timedMesh struct {
	*shard.Mesh
	ls *liveSharded
}

func (t timedMesh) Deform(fn func(pos []geom.Vec3)) {
	ls := t.ls
	sp := ls.tr.begin("shard.Mesh.Deform", 0, int64(ls.steps))
	ls.cur = stepRec{callStart: time.Now()}
	t.Mesh.Deform(func(pos []geom.Vec3) {
		child := ls.tr.begin("sim.Deformer.Step", sp.id(), int64(ls.steps))
		ls.cur.defStart = time.Now()
		fn(pos)
		ls.cur.defEnd = time.Now()
		child.end()
	})
	ls.cur.callEnd = time.Now()
	sp.end()
	ls.log = append(ls.log, ls.cur)
	ls.steps++
}

func newLiveSharded(cfg config) (*system, error) {
	ds := meshgen.NeuroL2
	if cfg.Small {
		ds = meshgen.NeuroL1
	}
	factory := func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }
	ls := &liveSharded{}
	var setups, builds, news []float64
	for range cfg.setupReps() {
		var m *mesh.Mesh
		var b, n float64
		total, err := timeIt(func() error {
			var err error
			b, err = timeIt(func() error {
				sp := cfg.Tracer.begin("meshgen.Build", 0, 0)
				defer sp.end()
				var err error
				m, err = meshgen.Build(ds, 1)
				return err
			})
			if err != nil {
				return err
			}
			n, err = timeIt(func() error {
				sp := cfg.Tracer.begin("shard.New", 0, 0)
				defer sp.end()
				var err error
				if ls.sm, err = shard.NewMesh(m, liveShards, shard.Options{}); err != nil {
					return err
				}
				ls.rt = shard.NewRouter(ls.sm, factory)
				return nil
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", ds, err)
		}
		setups, builds, news = append(setups, total), append(builds, b), append(news, n)
	}
	sys := &system{
		setup: metric{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		heap:  heapMB(),
		layers: []metric{
			{Name: "meshgen.build_s", Unit: "s", Value: median(builds), N: len(builds)},
			{Name: "shard.new_s", Unit: "s", Value: median(news), N: len(news)},
		},
		close:   func() {},
		measure: ls.measure,
	}

	ref, err := meshgen.Build(ds, 1)
	if err != nil {
		return nil, err
	}
	ls.warp = newSlabWave(ref, cfg.Seed)
	ls.replay = newReplayer(ref, ls.warp)
	// The pool and its popularity order are the same for every seed: with
	// Zipf(1.1) a handful of boxes take half the draws, and which boxes
	// those are would otherwise decide the run's figures. The seed varies
	// the draw sequence, the kNN probes and the deformation.
	ls.boxes = workload.NewGenerator(ref, 4096, livePoolSeed).UniformQueries(liveRangePool, liveSel)
	ls.gen = workload.NewGenerator(ref, 4096, cfg.Seed)
	ls.rnd = rand.New(rand.NewSource(cfg.Seed))
	ls.zipf = rand.NewZipf(ls.rnd, liveZipf, 1, liveRangePool-1)

	// Warm-up: fills the engines' scratch and the allocator.
	for range liveWarmRounds {
		warm, err := ls.serve(config{})
		if err != nil {
			return nil, err
		}
		ls.warm.add(warm.check)
	}
	return sys, nil
}

// draw returns n queries, split into the range boxes and kNN probes in
// draw order, with a key per query: the pool index of a box, a number
// unique to the run for a fresh probe.
func (ls *liveSharded) draw(n int) (boxes []geom.AABB, probes []query.KNNQuery, keys []int) {
	var rk, kk []int
	for range n {
		if ls.rnd.Intn(3) == 0 {
			kk = append(kk, liveRangePool+len(kk))
			continue
		}
		e := int(ls.zipf.Uint64())
		boxes = append(boxes, ls.boxes[e])
		rk = append(rk, e)
	}
	probes = ls.gen.KNNQueries(len(kk), knnKMin, knnKMax, 0.02)
	return boxes, probes, append(rk, kk...)
}

// liveRun is one Pipeline.Run with what it needs for the metrics.
type liveRun struct {
	rep   *query.PipelineReport
	cache query.CacheStats
	sched maintain.Stats
	log   []stepRec
	check checker
}

// serve runs one round: a Pipeline.Run of liveRoundQueries queries and
// liveRoundSteps steps, every answer checked.
func (ls *liveSharded) serve(cfg config) (*liveRun, error) {
	boxes, probes, keys := ls.draw(liveRoundQueries)
	var eng query.ParallelKNNEngine = ls.rt
	if cfg.Tracer != nil {
		eng = &tracedRouter{Router: ls.rt, tr: cfg.Tracer}
	}
	ls.tr = cfg.Tracer
	ls.log = ls.log[:0]
	p := &query.Pipeline{
		Engine:    eng,
		Mesh:      timedMesh{Mesh: ls.sm, ls: ls},
		Deform:    func(_ int, pos []geom.Vec3) { ls.warp.Step(ls.steps, pos) },
		Tick:      liveTick,
		Workers:   1,
		MinSteps:  liveRoundSteps,
		MaxSteps:  liveRoundSteps,
		CacheSize: liveCache,
	}
	run := &liveRun{rep: p.Run(boxes, probes)}
	run.cache, run.sched = p.CacheStats(), p.SchedulerStats()
	run.log = append([]stepRec(nil), ls.log...)

	chk := &run.check
	answers := make([]answer, 0, liveRoundQueries)
	for i, t := range run.rep.RangeTraces {
		if t.Shed || t.Err != nil {
			chk.fail()
			continue
		}
		answers = append(answers, answer{epoch: t.Epoch, key: keys[i], box: boxes[i], got: run.rep.RangeResults[i]})
	}
	for i, t := range run.rep.KNNTraces {
		if t.Shed || t.Err != nil {
			chk.fail()
			continue
		}
		q := probes[i]
		answers = append(answers, answer{epoch: t.Epoch, key: keys[len(boxes)+i], knn: true, p: q.P, k: q.K, got: run.rep.KNNResults[i]})
	}
	if _, err := ls.replay.check(answers, chk); err != nil {
		return nil, err
	}
	return run, nil
}

func (ls *liveSharded) fanout() [5]int64 {
	a, b, c, d, e := ls.rt.FanoutStats()
	return [5]int64{a, b, c, d, e}
}

// engineStats sums the shard engines' phase statistics.
func (ls *liveSharded) engineStats() core.Stats {
	var s core.Stats
	for _, e := range ls.rt.Engines() {
		s.Add(e.(*core.Octopus).Stats())
	}
	return s
}

// measure serves rounds until cfg.Duration of serving wall has passed.
func (ls *liveSharded) measure(cfg config) (*outcome, error) {
	out := &outcome{check: ls.warm}
	ls.warm = checker{}
	fanBefore, engBefore := ls.fanout(), ls.engineStats()
	var (
		rng, knn, uncached latencies
		hold, deform       latencies
		wall, simWall      time.Duration
		steps, hits        int
		traces             []query.QueryTrace
		cs                 query.CacheStats
		ss                 maintain.Stats
	)
	for wall < cfg.Duration {
		run, err := ls.serve(cfg)
		if err != nil {
			return nil, err
		}
		out.check.add(run.check)
		wall += run.rep.Wall
		traces = append(traces, run.rep.Traces()...)
		for _, t := range run.rep.RangeTraces {
			if t.Cached {
				hits++
			}
		}
		for _, r := range run.log {
			d := r.defEnd.Sub(r.defStart)
			deform = append(deform, d)
			hold = append(hold, r.callEnd.Sub(r.callStart)-d)
		}
		if n := len(run.log); n > 1 {
			simWall += run.log[n-1].defStart.Sub(run.log[0].defStart)
			steps += n - 1
		}
		cs.Hits, cs.Misses, cs.Invalidated = cs.Hits+run.cache.Hits, cs.Misses+run.cache.Misses, cs.Invalidated+run.cache.Invalidated
		ss.SliceTime, ss.Ticks, ss.FallbackQueries = ss.SliceTime+run.sched.SliceTime, ss.Ticks+run.sched.Ticks, ss.FallbackQueries+run.sched.FallbackQueries
		for _, t := range run.rep.RangeTraces {
			if !t.Shed {
				rng = append(rng, t.Latency)
			}
		}
		for _, t := range run.rep.KNNTraces {
			if !t.Shed {
				knn = append(knn, t.Latency)
			}
		}
	}
	for _, t := range traces {
		if !t.Shed && !t.Cached {
			uncached = append(uncached, t.Latency)
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("range cache hits %.3f of %d", ratio(float64(hits), float64(len(rng))), len(rng)))
	queries := len(rng) + len(knn)
	out.e2e = queryMetrics(rng, knn, hold, queries, wall, steps, simWall)
	out.meanLatency = us((rng.sum() + knn.sum()) / time.Duration(max(queries, 1)))
	if cfg.Tracer == nil {
		return out, nil
	}

	eng := delta(ls.engineStats(), engBefore)
	fanAfter := ls.fanout()
	var fan [5]float64
	for i := range fan {
		fan[i] = float64(fanAfter[i] - fanBefore[i])
	}
	calls := append(cfg.Tracer.named("shard.Cursor.Query"), cfg.Tracer.named("shard.Cursor.KNN")...)
	var callSum time.Duration
	for _, c := range calls {
		callSum += c.dur()
	}
	clearCalls, overlap := splitByOverlap(calls, cfg.Tracer.named("shard.Mesh.Deform"))
	staleMean, _ := query.StalenessStats(traces)
	ne := float64(eng.Queries)
	out.layers = []metric{
		{Name: "core.shard_probe_us", Unit: "us", Value: ratio(us(eng.SurfaceProbe), ne), N: int(ne)},
		{Name: "core.shard_crawl_us", Unit: "us", Value: ratio(us(eng.Crawl), ne), N: int(ne)},
		{Name: "sim.deform_ms", Unit: "ms", Value: ms(deform.mean()), N: len(deform)},
		{Name: "mesh.publish_ms", Unit: "ms", Value: ms(hold.mean()), N: len(hold)},
		{Name: "shard.range_fanout", Unit: "count", Value: ratio(fan[1], fan[0]), N: int(fan[0])},
		{Name: "shard.knn_scanned", Unit: "count", Value: ratio(fan[3], fan[2]), N: int(fan[2])},
		{Name: "shard.knn_widenings", Unit: "count", Value: ratio(fan[4], fan[2]), N: int(fan[2])},
		{Name: "shard.overlap_frac", Unit: "ratio", Value: ratio(float64(len(overlap)), float64(len(calls))), N: len(calls)},
		{Name: "shard.query_clear_p50_us", Unit: "us", Value: us(clearCalls.pct(0.5)), N: len(clearCalls)},
		{Name: "shard.query_overlap_p50_us", Unit: "us", Value: us(overlap.pct(0.5)), N: len(overlap)},
		{Name: "query.cache_hit_rate", Unit: "ratio", Value: cs.HitRate(), N: int(cs.Hits + cs.Misses)},
		{Name: "query.cache_invalidations_per_step", Unit: "count", Value: ratio(float64(cs.Invalidated), float64(len(hold))), N: len(hold)},
		{Name: "query.pipeline_overhead_us", Unit: "us", Value: us(uncached.mean()) - ratio(us(callSum), float64(len(calls))), N: len(calls)},
		{Name: "query.stale_epochs_mean", Unit: "count", Value: staleMean, N: queries},
		{Name: "maintain.slice_ms_per_tick", Unit: "ms", Value: ratio(ms(ss.SliceTime), float64(ss.Ticks)), N: int(ss.Ticks)},
		{Name: "maintain.fallback_frac", Unit: "ratio", Value: ratio(float64(ss.FallbackQueries), float64(queries)), N: queries},
	}
	return out, nil
}

// delta returns a-b field by field.
func delta(a, b core.Stats) core.Stats {
	return core.Stats{
		Queries:       a.Queries - b.Queries,
		Results:       a.Results - b.Results,
		SurfaceProbe:  a.SurfaceProbe - b.SurfaceProbe,
		DirectedWalk:  a.DirectedWalk - b.DirectedWalk,
		Crawl:         a.Crawl - b.Crawl,
		ProbeChecked:  a.ProbeChecked - b.ProbeChecked,
		WalkVisited:   a.WalkVisited - b.WalkVisited,
		CrawlVisited:  a.CrawlVisited - b.CrawlVisited,
		DirectedWalks: a.DirectedWalks - b.DirectedWalks,
	}
}

// splitByOverlap splits the query spans into those that overlap none of
// the publish spans and those that overlap one, as latencies.
func splitByOverlap(calls, publishes []span) (clearCalls, overlap latencies) {
	sort.Slice(calls, func(i, j int) bool { return calls[i].Start < calls[j].Start })
	// publishes are in start order and do not overlap each other (one
	// writer), so the first publish ending after a call's start is the
	// only candidate.
	for _, c := range calls {
		i := sort.Search(len(publishes), func(i int) bool { return publishes[i].End > c.Start })
		if i < len(publishes) && publishes[i].Start < c.End {
			overlap = append(overlap, c.dur())
		} else {
			clearCalls = append(clearCalls, c.dur())
		}
	}
	return clearCalls, overlap
}

// tracedRouter is the router with a span around every cursor call.
// Embedding keeps every method of *shard.Router, so the pipeline finds
// the same optional interfaces (maintain.StateProvider, PostTicker,
// CrawlTuner, ...) it finds on the bare router.
type tracedRouter struct {
	*shard.Router
	tr   *tracer
	next atomic.Int64
}

func (r *tracedRouter) NewCursor() query.Cursor {
	return &tracedCursor{Cursor: r.Router.NewCursor().(*shard.Cursor), r: r}
}

// tracedCursor keeps every method of *shard.Cursor (PinnedCursor,
// KNNBoundReporter, CoverageReporter, ...) and times Query and KNN.
type tracedCursor struct {
	*shard.Cursor
	r *tracedRouter
}

func (c *tracedCursor) Query(q geom.AABB, out []int32) []int32 {
	sp := c.r.tr.begin("shard.Cursor.Query", 0, c.r.next.Add(1))
	out = c.Cursor.Query(q, out)
	sp.end()
	return out
}

func (c *tracedCursor) KNN(p geom.Vec3, k int, out []int32) []int32 {
	sp := c.r.tr.begin("shard.Cursor.KNN", 0, c.r.next.Add(1))
	out = c.Cursor.KNN(p, k, out)
	sp.end()
	return out
}
