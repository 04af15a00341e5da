package main

import (
	"cmp"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/meshgen"
	"octopus/internal/query"
	"octopus/internal/shard"
	"octopus/internal/sim"
)

// benchmarkSpec is the part of BENCHMARK.json the runs must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloads runs every workload once untraced and once traced at
// the smallest size; run it under -race. Each run must check answers,
// find no wrong answer, and print exactly the metrics
// BENCHMARK.json declares, with its units.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wf, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("workload %q of BENCHMARK.json is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{Seed: 3, Duration: 400 * time.Millisecond, Small: true}
			rep, err := run(wf, cfg, traced, w.Name, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			f := rep.final
			// Honest errors are not checked: under -race a dist-tcp query
			// can outlast the router's skew re-query rounds.
			if !f.Correct || f.Attempted == 0 || rep.check.wrong != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d wrong=%d (%v)", w.Name, traced, f.Correct, f.Attempted, rep.check.wrong, rep.notes)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(f.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(f.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := f.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCheckerCountsCorruptedAnswers corrupts correct answers and checks
// that each corruption is counted as a failed operation, and that the
// ones outside the connectivity limit make the run incorrect.
func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	build := func() *mesh.Mesh {
		m, err := meshgen.BuildBoxTet(6, 6, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	d := &sim.BlobDeformer{Radius: 2, Amplitude: 0.05, Seed: 1}
	box := geom.AABB{Min: geom.V(1, 1, 1), Max: geom.V(4, 4, 4)}
	p, k := geom.V(2.5, 2.5, 2.5), 6

	// The true answers at epoch 3, after three steps.
	truth := build()
	for step := range 3 {
		d.Step(step, truth.Positions())
	}
	rangeWant := query.BruteForce(truth, box)
	knnWant := query.BruteForceKNN(truth, p, k)
	if len(rangeWant) < 2 || len(knnWant) != k {
		t.Fatalf("degenerate fixture: %d range ids, %d kNN ids", len(rangeWant), len(knnWant))
	}
	outside := int32(0) // vertex (0,0,0) stays outside the box
	swapped := slices.Clone(knnWant)
	swapped[0], swapped[1] = swapped[1], swapped[0]

	cases := []struct {
		name            string
		a               answer
		wrong, violates int64
	}{
		{"exact range", answer{epoch: 3, box: box, got: rangeWant}, 0, 0},
		{"exact kNN", answer{epoch: 3, knn: true, p: p, k: k, got: knnWant}, 0, 0},
		{"range missing an id", answer{epoch: 3, box: box, got: rangeWant[1:]}, 1, 0},
		{"range with a spurious id", answer{epoch: 3, box: box, got: append(slices.Clone(rangeWant), outside)}, 1, 1},
		{"range with a duplicate id", answer{epoch: 3, box: box, got: append(slices.Clone(rangeWant), rangeWant[0])}, 1, 1},
		{"kNN out of order", answer{epoch: 3, knn: true, p: p, k: k, got: swapped}, 1, 1},
		{"kNN short", answer{epoch: 3, knn: true, p: p, k: k, got: knnWant[:k-1]}, 1, 1},
	}
	for _, c := range cases {
		var chk checker
		if _, err := newReplayer(build(), d).check([]answer{c.a}, &chk); err != nil {
			t.Fatal(err)
		}
		if chk.attempted != 1 || chk.wrong != c.wrong || chk.violations != c.violates || chk.failed() != c.wrong {
			t.Errorf("%s: attempted %d wrong %d violations %d failed %d, want 1 %d %d %d",
				c.name, chk.attempted, chk.wrong, chk.violations, chk.failed(), c.wrong, c.violates, c.wrong)
		}
	}
}

// TestSlabWaveKeepsAxisOrder checks the property that makes the workloads'
// range answers exact: after many steps, the vertices are still in their
// rest order along every axis, with no two coordinates that differed at
// rest now equal.
func TestSlabWaveKeepsAxisOrder(t *testing.T) {
	m, err := meshgen.Build(meshgen.NeuroL1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rest := m.Positions()
	pos := slices.Clone(rest)
	w := newSlabWave(m, 5)
	for step := range 300 {
		w.Step(step, pos)
	}
	if slices.Equal(pos, rest) {
		t.Fatal("the slab wave moved nothing")
	}
	for axis := range 3 {
		order := make([]int, len(rest))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(coord(rest[a], axis), coord(rest[b], axis)) })
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			ra, rb, pa, pb := coord(rest[a], axis), coord(rest[b], axis), coord(pos[a], axis), coord(pos[b], axis)
			if ra < rb && !(pa < pb) || ra == rb && pa != pb {
				t.Fatalf("axis %d: rest %v, %v became %v, %v", axis, ra, rb, pa, pb)
			}
		}
	}
}

// TestWrappersKeepMethods checks that the timing wrappers the pipeline
// sees have every method of the types they wrap, so the pipeline finds
// the same optional interfaces with tracing on and off.
func TestWrappersKeepMethods(t *testing.T) {
	pairs := []struct{ wrapped, wrapper any }{
		{&shard.Router{}, &tracedRouter{}},
		{&shard.Cursor{}, &tracedCursor{}},
		{&shard.Mesh{}, timedMesh{}},
	}
	for _, p := range pairs {
		inner, outer := reflect.TypeOf(p.wrapped), reflect.TypeOf(p.wrapper)
		for i := range inner.NumMethod() {
			name := inner.Method(i).Name
			if _, ok := outer.MethodByName(name); !ok {
				t.Errorf("%v lacks method %s of %v", outer, name, inner)
			}
		}
	}
}
