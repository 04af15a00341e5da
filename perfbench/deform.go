package main

import (
	"octopus/internal/geom"
	"octopus/internal/mesh"
	"octopus/internal/sim"
)

// The workloads deform the mesh with a separable monotone warp: a step
// moves each coordinate of a vertex by an amount that depends only on
// that coordinate, through a map that is strictly increasing along its
// axis. The vertices inside an axis-aligned box after any number of such
// steps are then exactly the vertices that were inside another
// axis-aligned box (the box's preimage) at the rest positions, so every
// range answer is as exact as the engine is on the undeformed mesh.
//
// The repository's NoiseDeformer and BlobDeformer move neighbouring
// vertices in unrelated directions. After a few dozen of their steps, at
// times after ten, a box can hold vertices whose every mesh edge to the
// box's other vertices runs outside the box, and OCTOPUS's crawl, which
// never expands past an outside vertex (DESIGN.md §4), misses them: 0.1%
// to 0.4% of range answers on these workloads. Every operation of a
// benchmark run has to succeed, so the workloads use a warp under which
// that limit cannot show; the oracle still compares every answer with
// brute force, id for id.

// slabWave moves the vertices of one slab each step: along the step's
// axis, a vertex at distance d < halfWidth from the slab's centre plane
// moves by ±A·(1 - (d/halfWidth)²)². The plane goes through a vertex
// chosen from the step and the seed, as BlobDeformer chooses its centre,
// so the slab always cuts the mesh; it is the localized regime that the
// dirty-region tracking, the result cache and the delta publish serve.
// The map stays strictly increasing along the axis while the steepest
// slope of the displacement, A·8/(3√3)/halfWidth, stays below 1; it is
// far below at the workloads' settings, and TestSlabWaveKeepsAxisOrder
// checks the order it keeps.
type slabWave struct {
	amplitude, halfWidth float64
	seed                 int64
}

func (w *slabWave) Step(step int, pos []geom.Vec3) {
	if len(pos) == 0 {
		return
	}
	axis := int(splitmix(uint64(step)^uint64(w.seed)<<32) % 3)
	c := coord(pos[(uint64(step)*7919+uint64(w.seed))%uint64(len(pos))], axis)
	a := w.amplitude
	if splitmix(uint64(step)*0x9e3779b97f4a7c15^uint64(w.seed)<<20^3)>>63 == 0 {
		a = -a
	}
	for i := range pos {
		u := (coord(pos[i], axis) - c) / w.halfWidth
		if u <= -1 || u >= 1 {
			continue
		}
		s := 1 - u*u
		addCoord(&pos[i], axis, a*s*s)
	}
}

// slabHalfWidth is a slab's half-width as a share of the bounds diagonal.
const slabHalfWidth = 0.015

// newSlabWave returns the live workloads' deformer: the default per-step
// displacement, in a slab whose half-width is slabHalfWidth of m's
// bounds diagonal.
func newSlabWave(m *mesh.Mesh, seed int64) *slabWave {
	b := m.Bounds()
	return &slabWave{amplitude: sim.DefaultAmplitude, halfWidth: slabHalfWidth * b.Max.Sub(b.Min).Len(), seed: seed}
}

func coord(p geom.Vec3, axis int) float64 {
	switch axis {
	case 0:
		return p.X
	case 1:
		return p.Y
	}
	return p.Z
}

func addCoord(p *geom.Vec3, axis int, d float64) {
	switch axis {
	case 0:
		p.X += d
	case 1:
		p.Y += d
	default:
		p.Z += d
	}
}

// splitmix hashes the step and the seed into the slab's axis and sign,
// so that the warp is stateless: a replay from the rest positions
// reproduces every step bit for bit.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
