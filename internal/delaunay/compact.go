package delaunay

import (
	"slices"

	"godtfe/internal/geom"
)

// Post-build canonicalization and locality compaction of the tet pool.
//
// The symbolic perturbation (perturb.go) depends only on point coordinates,
// so the Delaunay triangulation of a point set is canonically unique — the
// same finite-tet set regardless of insertion order. What DOES depend on
// build history is the representation: which vertex sits in which tet slot
// (insertion-dependent, and slot order feeds FP results downstream: the
// gradient solve and interpolation base in internal/dtfe use slot 0), and
// where each tet lands in the pool (pool order is the FP accumulation order
// of VertexVolumes and the memory layout the march kernel's neighbor walk
// traverses).
//
// compact() erases that history: every tet is rewritten into its canonical
// slot order (the lexicographically smallest of the 12 orientation-
// preserving vertex permutations), and the pool is rebuilt with finite tets
// sorted by the Hilbert key of their barycenter (ties by vertex quadruple)
// followed by infinite tets sorted by vertex triple. Two builds of the same
// point set — Hilbert-order, input-order, or a delta-updated mesh — then
// produce deeply equal Triangulations.
// The Hilbert ordering is also the random-catalog locality fix: pool
// neighbors are spatial neighbors, so the SoA records the render kernel
// walks (internal/render) stay cache-resident.

// evenPerms holds the 12 even (orientation-preserving) permutations of the
// four tet slots, filled by init.
var evenPerms [][4]int

func init() {
	idx := [4]int{0, 1, 2, 3}
	var rec func(k int, cur [4]int, used [4]bool)
	rec = func(k int, cur [4]int, used [4]bool) {
		if k == 4 {
			// Count inversions: keep even permutations only.
			inv := 0
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					if cur[i] > cur[j] {
						inv++
					}
				}
			}
			if inv%2 == 0 {
				evenPerms = append(evenPerms, cur)
			}
			return
		}
		for _, v := range idx {
			if !used[v] {
				used[v] = true
				cur[k] = v
				rec(k+1, cur, used)
				used[v] = false
			}
		}
	}
	rec(0, [4]int{}, [4]bool{})
}

// canonicalize rewrites tet into its canonical slot order: the
// lexicographically smallest vertex quadruple reachable by an even
// permutation. Even permutations preserve orientation and the faceTable
// outward-face convention, so all structural invariants survive. For
// infinite tets the canonical form always has V[0] == Inf (the smallest
// value; A4 acts transitively on slots).
func canonicalize(tet *Tet) {
	best := 0
	for pi := 1; pi < len(evenPerms); pi++ {
		p, q := evenPerms[pi], evenPerms[best]
		for k := 0; k < 4; k++ {
			a, b := tet.V[p[k]], tet.V[q[k]]
			if a != b {
				if a < b {
					best = pi
				}
				break
			}
		}
	}
	if best == 0 {
		return // identity permutation is evenPerms[0]
	}
	p := evenPerms[best]
	v, n := tet.V, tet.N
	for k := 0; k < 4; k++ {
		tet.V[k] = v[p[k]]
		tet.N[k] = n[p[k]]
	}
}

// compact canonicalizes every live tet and rebuilds the pool in canonical
// order (finite tets in Hilbert-barycenter order, then infinite tets),
// dropping free slots and resetting all scratch state. After compact the
// Triangulation is a pure function of the input point set.
func (t *Triangulation) compact() {
	box := geom.BoundsOf(t.pts)

	var finite, infinite []int32
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		canonicalize(&t.tets[i])
		if t.tets[i].V[0] == Inf {
			infinite = append(infinite, int32(i))
		} else {
			finite = append(finite, int32(i))
		}
	}

	// Hilbert key of each finite tet's barycenter, computed in canonical
	// slot order so the FP sum is deterministic.
	keys := make([]uint64, len(t.tets))
	for _, ti := range finite {
		v := &t.tets[ti].V
		p0, p1, p2, p3 := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]], t.pts[v[3]]
		bc := geom.Vec3{
			X: (p0.X + p1.X + p2.X + p3.X) * 0.25,
			Y: (p0.Y + p1.Y + p2.Y + p3.Y) * 0.25,
			Z: (p0.Z + p1.Z + p2.Z + p3.Z) * 0.25,
		}
		keys[ti] = geom.HilbertKey(bc, box)
	}
	vCmp := func(a, b int32) int {
		va, vb := &t.tets[a].V, &t.tets[b].V
		for k := 0; k < 4; k++ {
			if va[k] != vb[k] {
				if va[k] < vb[k] {
					return -1
				}
				return 1
			}
		}
		return 0 // distinct live tets never share all four vertices
	}
	slices.SortFunc(finite, func(a, b int32) int {
		if keys[a] != keys[b] {
			if keys[a] < keys[b] {
				return -1
			}
			return 1
		}
		return vCmp(a, b)
	})
	slices.SortFunc(infinite, vCmp)

	perm := make([]int32, len(t.tets)) // old index -> new index
	order := make([]int32, 0, len(finite)+len(infinite))
	order = append(order, finite...)
	order = append(order, infinite...)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = int32(newIdx)
	}

	newTets := make([]Tet, len(order))
	for newIdx, oldIdx := range order {
		tt := t.tets[oldIdx]
		for k := 0; k < 4; k++ {
			tt.N[k] = perm[tt.N[k]] // neighbors are always live
		}
		newTets[newIdx] = tt
	}
	t.tets = newTets
	t.dead = make([]bool, len(newTets))
	t.free = nil

	for v := range t.vertTet {
		t.vertTet[v] = NoTet
	}
	for i := range t.tets {
		for _, v := range t.tets[i].V {
			if v != Inf && t.vertTet[v] == NoTet {
				t.vertTet[v] = int32(i)
			}
		}
	}

	t.mark = make([]int32, len(newTets))
	t.cmark = make([]int32, len(newTets))
	t.cval = make([]bool, len(newTets))
	t.epoch = 0
	t.last = 0
	t.rng = 0x9e3779b97f4a7c15
	t.cavity = nil
	t.border = nil
	t.stack = nil
	t.faceTab = flatFaceTable{}
}
