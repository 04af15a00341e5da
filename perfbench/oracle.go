package main

import (
	"fmt"
	"slices"
	"sort"

	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/query"
	"octopus/internal/sim"
)

// checker counts answers against the brute-force oracle.
//
// A wrong answer is a failed operation. A wrong answer that only misses
// vertices is the documented limit of OCTOPUS (DESIGN.md §4: a crawl
// reaches only what is edge-connected to its seeds): a range answer that
// is a subset of the brute-force set, or a kNN answer of k distinct ids
// in (distance, id) order none of which outranks the true one at its
// position. Any other wrong answer — a spurious or duplicate id, a kNN
// answer out of order — breaks the engine's contract and makes the run
// incorrect.
type checker struct {
	attempted int64
	errors    int64 // honest errors and shed queries
	wrong     int64 // answers that differ from brute force
	// violations counts the wrong answers that are not explained by the
	// connectivity limit.
	violations int64
	firstBad   string
	sorted     []int32 // scratch
}

func (c *checker) failed() int64 { return c.errors + c.wrong }

func (c *checker) add(o checker) {
	c.attempted += o.attempted
	c.errors += o.errors
	c.wrong += o.wrong
	c.violations += o.violations
	if c.firstBad == "" {
		c.firstBad = o.firstBad
	}
}

// fail counts a query that returned an error or was refused.
func (c *checker) fail() {
	c.attempted++
	c.errors++
}

// checkRange compares a range answer with the brute-force ids (ascending,
// as query.BruteForce returns them).
func (c *checker) checkRange(got, want []int32) {
	c.attempted++
	c.sorted = append(c.sorted[:0], got...)
	g := c.sorted
	slices.Sort(g)
	if slices.Equal(g, want) {
		return
	}
	c.wrong++
	if !strictSubset(g, want) {
		c.violate(fmt.Sprintf("range answer has %d ids, brute force %d, and not a subset", len(g), len(want)))
	}
}

// checkKNN compares a kNN answer with query.BruteForceKNN, order
// included. pos are the positions at the answer's epoch and p the probe.
// A differing answer that still holds len(want) distinct ids in (distance,
// id) order is a search that missed closer vertices, the kNN form of the
// connectivity limit.
func (c *checker) checkKNN(got, want []int32, pos []geom.Vec3, p geom.Vec3) {
	c.attempted++
	if slices.Equal(got, want) {
		return
	}
	c.wrong++
	if !rankedSubsetOrder(got, want, pos, p) {
		c.violate(fmt.Sprintf("kNN answer %v, brute force %v", got, want))
	}
}

// rankedSubsetOrder reports whether got has as many ids as want, all
// distinct and valid, in strictly increasing (distance to p, id) order,
// each ranking no better than the brute-force id at its position.
func rankedSubsetOrder(got, want []int32, pos []geom.Vec3, p geom.Vec3) bool {
	if len(got) != len(want) {
		return false
	}
	less := func(a, b int32) bool {
		da, db := pos[a].Dist2(p), pos[b].Dist2(p)
		return da < db || (da == db && a < b)
	}
	for i, id := range got {
		if id < 0 || int(id) >= len(pos) {
			return false
		}
		if i > 0 && !less(got[i-1], id) {
			return false
		}
		if less(id, want[i]) {
			return false
		}
	}
	return true
}

func (c *checker) violate(msg string) {
	c.violations++
	if c.firstBad == "" {
		c.firstBad = msg
	}
}

// strictSubset reports whether sorted g has no duplicates and every id
// of g is in sorted w.
func strictSubset(g, w []int32) bool {
	j := 0
	for i, id := range g {
		if i > 0 && g[i-1] == id {
			return false
		}
		for j < len(w) && w[j] < id {
			j++
		}
		if j == len(w) || w[j] != id {
			return false
		}
	}
	return true
}

// answer is one live answer awaiting its check: the query, the ids the
// program returned and the epoch it says they are exact at.
type answer struct {
	epoch uint64
	// key identifies the query's input, so that several answers to one
	// input at one epoch share one brute-force scan.
	key int
	knn bool
	box geom.AABB
	p   geom.Vec3
	k   int
	got []int32
}

// replayer checks live answers by replaying the deformation from the
// pristine positions: ref is a bit-identical copy of the served mesh
// before its first step, and d applied for steps 0, 1, ... reproduces
// every published epoch, because deformers are deterministic functions
// of the step and the positions.
type replayer struct {
	ref   *mesh.Mesh
	d     sim.Deformer
	epoch uint64
	prev  []geom.Vec3
}

func newReplayer(ref *mesh.Mesh, d sim.Deformer) *replayer {
	return &replayer{ref: ref, d: d, prev: make([]geom.Vec3, ref.NumVertices())}
}

// check checks answers, whose epochs must not precede any epoch an
// earlier call reached. It returns the number of vertices each step it
// replayed moved.
func (r *replayer) check(answers []answer, chk *checker) ([]int, error) {
	sort.SliceStable(answers, func(i, j int) bool { return answers[i].epoch < answers[j].epoch })
	pos := r.ref.Positions()
	var moved []int
	memo := make(map[int][]int32)
	for _, a := range answers {
		if a.epoch < r.epoch {
			return nil, fmt.Errorf("answer at epoch %d after the replay reached %d", a.epoch, r.epoch)
		}
		for r.epoch < a.epoch {
			copy(r.prev, pos)
			r.d.Step(int(r.epoch), pos)
			n := 0
			for i := range pos {
				if pos[i] != r.prev[i] {
					n++
				}
			}
			moved = append(moved, n)
			r.epoch++
			clear(memo)
		}
		want, ok := memo[a.key]
		if !ok {
			if a.knn {
				want = query.BruteForceKNN(r.ref, a.p, a.k)
			} else {
				want = query.BruteForce(r.ref, a.box)
			}
			memo[a.key] = want
		}
		if a.knn {
			chk.checkKNN(a.got, want, pos, a.p)
		} else {
			chk.checkRange(a.got, want)
		}
	}
	return moved, nil
}
