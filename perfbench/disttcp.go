package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"octopus/internal/core"
	"octopus/internal/dist"
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/workload"
)

// dist-tcp: K=2 dist shard servers behind real TCP sockets and a
// dist.Router with one pooled connection per shard, so the router holds
// distShards connections; the whole cluster runs on one P. One client
// sends fresh range boxes and kNN probes (2:1), each after the previous
// answer: a closed loop. A control-plane writer publishes slabWave
// deltas and maintains every distPublishEvery. The router cache is off.
const (
	distShards       = 2
	distPublishEvery = 20 * time.Millisecond
	distSel          = 0.001
	// distProcs is the GOMAXPROCS of the run. Client, router, servers and
	// control plane share one process; on a 2-vCPU VM, with two Ps their
	// every hand-off woke the other vCPU, and that wake-up, whose cost
	// swings with the host's load, set the tail and the publish time. In
	// interleaved runs under one host load, one P ran 1.4 times the
	// queries per second of two and spread 0.06-0.12 between seeds where
	// two spread 0.18-0.32.
	distProcs = 1
	// distInputsPerSec bounds the queries generated per measured second,
	// above the single client's rate on a 2-CPU machine (about 850/s).
	distInputsPerSec = 1500
)

type distTCP struct {
	cp      *dist.Cluster
	rt      *dist.Router
	tsrvs   []*dist.TCPServer
	serving sync.WaitGroup
	// tr is the tracer the servers' handlers record into; nil while a
	// phase runs untraced.
	tr atomic.Pointer[tracer]

	warp   *slabWave
	replay *replayer
	gen    *workload.Generator
	rnd    *rand.Rand
	steps  int
}

// timedHandler records a span around every RPC a shard server handles.
type timedHandler struct {
	h    dist.Handler
	name string
	d    *distTCP
}

func (t *timedHandler) Handle(op byte, req []byte) ([]byte, error) {
	sp := t.d.tr.Load().begin(t.name, 0, 0)
	defer sp.end()
	return t.h.Handle(op, req)
}

// newDistTCP runs the whole cluster on distProcs Ps until the system is
// closed.
func newDistTCP(cfg config) (*system, error) {
	prev := runtime.GOMAXPROCS(distProcs)
	sys, err := buildDistTCP(cfg)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return nil, err
	}
	closeCluster := sys.close
	sys.close = func() {
		closeCluster()
		runtime.GOMAXPROCS(prev)
	}
	return sys, nil
}

func buildDistTCP(cfg config) (*system, error) {
	ds := meshgen.NeuroL2
	if cfg.Small {
		ds = meshgen.NeuroL1
	}
	var d *distTCP
	var setups, builds, clusters []float64
	for range cfg.setupReps() {
		if d != nil {
			d.close()
		}
		d = &distTCP{}
		var m *mesh.Mesh
		var b, c float64
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
			c, err = timeIt(func() error {
				sp := cfg.Tracer.begin("dist.Cluster", 0, 0)
				defer sp.end()
				return d.serve(m, cfg.Tracer != nil)
			})
			return err
		})
		if err != nil {
			if d != nil {
				d.close()
			}
			return nil, fmt.Errorf("build %s cluster: %w", ds, err)
		}
		setups, builds, clusters = append(setups, total), append(builds, b), append(clusters, c)
	}
	sys := &system{
		setup: metric{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
		heap:  heapMB(),
		layers: []metric{
			{Name: "meshgen.build_s", Unit: "s", Value: median(builds), N: len(builds)},
			{Name: "dist.cluster_s", Unit: "s", Value: median(clusters), N: len(clusters)},
		},
		close:   d.close,
		measure: d.measure,
	}
	ref, err := meshgen.Build(ds, 1)
	if err != nil {
		d.close()
		return nil, err
	}
	d.warp = newSlabWave(ref, cfg.Seed)
	d.replay = newReplayer(ref, d.warp)
	d.gen = workload.NewGenerator(ref, 4096, cfg.Seed)
	d.rnd = rand.New(rand.NewSource(cfg.Seed))
	return sys, nil
}

// serve partitions m, starts one shard server per shard with a query
// listener and a control listener, and connects the control plane and
// the router. With timed set, every server handler records spans.
func (d *distTCP) serve(m *mesh.Mesh, timed bool) error {
	sm, err := shard.NewMesh(m, distShards, shard.Options{})
	if err != nil {
		return err
	}
	sm.EnableSnapshots()
	factory := func(m *mesh.Mesh) query.ParallelKNNEngine { return core.New(m) }
	var queryAddrs, ctlAddrs []string
	for _, p := range sm.Partition().Parts {
		srv := dist.NewServer(p, factory)
		for _, port := range []struct {
			name  string
			addrs *[]string
		}{{"dist.Server.Handle", &queryAddrs}, {"dist.Server.Handle.control", &ctlAddrs}} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			var h dist.Handler = srv
			if timed {
				h = &timedHandler{h: srv, name: port.name, d: d}
			}
			ts := dist.NewTCPServer(ln, h)
			d.tsrvs = append(d.tsrvs, ts)
			*port.addrs = append(*port.addrs, ts.Addr())
			d.serving.Add(1)
			go func() {
				defer d.serving.Done()
				ts.Serve()
			}()
		}
	}
	d.cp = dist.NewControlPlane(sm, &dist.TCPTransport{}, ctlAddrs)
	d.rt = dist.NewRouter(&dist.TCPTransport{}, queryAddrs, dist.RetryPolicy{Pool: 1})
	return d.rt.Refresh()
}

// close stops the router, the control plane and every server, and waits
// for the servers' accept loops to end.
func (d *distTCP) close() {
	if d.rt != nil {
		d.rt.Close()
	}
	if d.cp != nil {
		d.cp.Close()
	}
	for _, ts := range d.tsrvs {
		ts.Stop()
	}
	d.serving.Wait()
}

// distStep is one control-plane step: DeformErr (with the deformer
// inside it) and MaintainToHead.
type distStep struct {
	pubStart, defStart, defEnd, pubEnd, maintEnd time.Time
}

func (d *distTCP) measure(cfg config) (*outcome, error) {
	tr := cfg.Tracer
	d.tr.Store(tr)
	defer d.tr.Store(nil)

	n := max(int(distInputsPerSec*cfg.Duration.Seconds()), 1)
	isKNN := make([]bool, n)
	nKNN := 0
	for i := range isKNN {
		isKNN[i] = d.rnd.Intn(3) == 0
		if isKNN[i] {
			nKNN++
		}
	}
	boxes := d.gen.UniformQueries(n-nKNN, distSel)
	probes := d.gen.KNNQueries(nKNN, knnKMin, knnKMax, 0.02)
	// input[i] indexes boxes or probes.
	input := make([]int, n)
	for i, r, k := 0, 0, 0; i < n; i++ {
		if isKNN[i] {
			input[i], k = k, k+1
		} else {
			input[i], r = r, r+1
		}
	}
	statsBefore, wireBefore, pubBefore := d.rt.Stats(), d.rt.WireStats().Total(), d.cp.WireStats().PublishedBytes()

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var log []distStep
	var writerErr error
	go func() {
		defer close(writerDone)
		tick := time.NewTicker(distPublishEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			step := d.steps
			var s distStep
			pub := tr.begin("dist.Cluster.DeformErr", 0, int64(step))
			s.pubStart = time.Now()
			err := d.cp.DeformErr(func(pos []geom.Vec3) {
				sp := tr.begin("sim.Deformer.Step", pub.id(), int64(step))
				s.defStart = time.Now()
				d.warp.Step(step, pos)
				s.defEnd = time.Now()
				sp.end()
			})
			s.pubEnd = time.Now()
			pub.end()
			if err != nil {
				writerErr = err
				return
			}
			d.steps++
			sp := tr.begin("dist.Cluster.MaintainToHead", 0, int64(step))
			err = d.cp.MaintainToHead()
			s.maintEnd = time.Now()
			sp.end()
			if err != nil {
				writerErr = err
				return
			}
			log = append(log, s)
		}
	}()

	out := &outcome{}
	var rng, knn latencies
	var answers []answer
	var buf []int32
	start := time.Now()
	sent := 0
	for ; sent < n && time.Since(start) < cfg.Duration; sent++ {
		i := sent
		var epoch uint64
		var err error
		t0 := time.Now()
		if isKNN[i] {
			p := probes[input[i]]
			sp := tr.begin("dist.Router.KNN", 0, int64(i))
			buf, epoch, err = d.rt.KNN(p.P, p.K, buf[:0])
			sp.end()
			knn = append(knn, time.Since(t0))
		} else {
			sp := tr.begin("dist.Router.Range", 0, int64(i))
			buf, epoch, err = d.rt.Range(boxes[input[i]], buf[:0])
			sp.end()
			rng = append(rng, time.Since(t0))
		}
		if err != nil {
			out.check.fail()
			continue
		}
		a := answer{epoch: epoch, key: i, got: append([]int32(nil), buf...)}
		if isKNN[i] {
			p := probes[input[i]]
			a.knn, a.p, a.k = true, p.P, p.K
		} else {
			a.box = boxes[input[i]]
		}
		answers = append(answers, a)
	}
	wall := time.Since(start)
	close(stop)
	<-writerDone
	if writerErr != nil {
		return nil, fmt.Errorf("control plane: %w", writerErr)
	}
	if sent == n {
		out.notes = append(out.notes, fmt.Sprintf("inputs ran out after %.2fs of %v", wall.Seconds(), cfg.Duration))
	}

	moved, err := d.replay.check(answers, &out.check)
	if err != nil {
		return nil, err
	}

	var hold, publish latencies
	for _, s := range log {
		p := s.pubEnd.Sub(s.pubStart) - s.defEnd.Sub(s.defStart)
		publish = append(publish, p)
		hold = append(hold, p+s.maintEnd.Sub(s.pubEnd))
	}
	var simWall time.Duration
	if len(log) > 1 {
		simWall = log[len(log)-1].defStart.Sub(log[0].defStart)
	}
	queries := len(rng) + len(knn)
	out.e2e = queryMetrics(rng, knn, hold, queries, wall, len(log)-1, simWall)
	out.meanLatency = us((rng.sum() + knn.sum()) / time.Duration(max(queries, 1)))
	if tr == nil {
		return out, nil
	}

	st := d.rt.Stats()
	wire := d.rt.WireStats().Total()
	rq := float64(st.RangeQueries - statsBefore.RangeQueries)
	kq := float64(st.KNNQueries - statsBefore.KNNQueries)
	var movedSum int
	for _, m := range moved {
		movedSum += m
	}
	self := tr.selfTimes()
	server := self["dist.Server.Handle"]
	routerTotal := self["dist.Router.Range"].Total + self["dist.Router.KNN"].Total
	nq := float64(queries)
	out.layers = []metric{
		{Name: "mesh.publish_ms", Unit: "ms", Value: ms(publish.mean()), N: len(publish)},
		{Name: "mesh.dirty_verts_per_step", Unit: "count", Value: ratio(float64(movedSum), float64(len(moved))), N: len(moved)},
		{Name: "dist.range_fanout", Unit: "count", Value: ratio(float64(st.RangeFanout-statsBefore.RangeFanout), rq), N: int(rq)},
		{Name: "dist.knn_scanned", Unit: "count", Value: ratio(float64(st.KNNScanned-statsBefore.KNNScanned), kq), N: int(kq)},
		{Name: "dist.skew_requeries_per_query", Unit: "count", Value: ratio(float64(st.SkewRequeries-statsBefore.SkewRequeries), nq), N: queries},
		{Name: "dist.retries", Unit: "count", Value: float64(st.Retries - statsBefore.Retries), N: queries},
		{Name: "dist.req_bytes_per_query", Unit: "B", Value: ratio(float64(wire.BytesSent-wireBefore.BytesSent), nq), N: queries},
		{Name: "dist.resp_bytes_per_query", Unit: "B", Value: ratio(float64(wire.BytesRecv-wireBefore.BytesRecv), nq), N: queries},
		{Name: "dist.publish_bytes_per_step", Unit: "B", Value: ratio(float64(d.cp.WireStats().PublishedBytes()-pubBefore), float64(len(log))), N: len(log)},
		{Name: "dist.server_us", Unit: "us", Value: us(server.meanSelf()), N: server.N},
		{Name: "dist.router_self_us", Unit: "us", Value: ratio(us(routerTotal-server.Total), nq), N: queries},
	}
	return out, nil
}
