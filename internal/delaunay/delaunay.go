// Package delaunay implements a from-scratch incremental 3D Delaunay
// triangulation (Bowyer–Watson conflict-cavity insertion) suitable for the
// DTFE surface-density kernel: it exposes tetrahedra with full face
// adjacency, the convex hull, and per-vertex incident-volume sums.
//
// The triangulation maintains a symbolic "infinite vertex" (index Inf): every
// convex-hull facet is shared with an infinite tetrahedron, so every face of
// every tetrahedron always has a neighbor and the marching/walking kernels
// never need nil checks. Geometric predicates come from internal/geom and are
// exact (filtered float64 with an allocation-free adaptive expansion
// fallback), so construction is robust for degenerate inputs: duplicates are
// detected and mapped, grid-aligned and cospherical point sets are handled
// deterministically.
package delaunay

import (
	"fmt"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Inf is the symbolic infinite vertex index.
const Inf int32 = -1

// NoTet marks an absent tetrahedron index.
const NoTet int32 = -1

// Tet is a tetrahedron: four vertex indices (Inf for the infinite vertex)
// and the four adjacent tetrahedra. N[i] is the tet sharing the face
// opposite V[i]. Finite tets are positively oriented
// (geom.Orient3D(V0,V1,V2,V3) > 0); infinite tets are positively oriented
// in the symbolic sense (the infinite vertex acts as a point far beyond the
// hull facet).
type Tet struct {
	V [4]int32
	N [4]int32
}

// InfSlot returns the slot of the infinite vertex, or -1 if the tet is
// finite.
func (t *Tet) InfSlot() int {
	for i, v := range t.V {
		if v == Inf {
			return i
		}
	}
	return -1
}

// faceTable lists, for slot i, the other three vertex slots ordered so the
// face is outward-oriented (its positive side faces away from V[i]).
var faceTable = [4][3]int{
	{1, 2, 3},
	{0, 3, 2},
	{0, 1, 3},
	{0, 2, 1},
}

// Triangulation is a 3D Delaunay triangulation. Build one with New.
type Triangulation struct {
	pts  []geom.Vec3
	tets []Tet
	dead []bool
	free []int32

	// vertTet[v] is some live tet incident to vertex v.
	vertTet []int32

	// dupOf[i] == i for canonical vertices; for an exact duplicate it is
	// the index of the earlier identical point.
	dupOf []int32

	last int32 // walk start hint

	// scratch state reused across insertions (no steady-state allocation
	// in the insert loop: the flood-fill stack, the cavity/border lists,
	// the flat face-matching table, and the per-insertion conflict memo
	// all keep their backing arrays across insertions)
	mark    []int32
	epoch   int32
	cavity  []int32
	border  []borderFace
	stack   []int32
	faceTab flatFaceTable
	// conflict memo: conflicts(ti, p) is evaluated at most once per
	// (tet, insertion) — findConflictSeed and the cavity flood fill would
	// otherwise re-test border tets once per adjacent cavity face.
	cmark []int32
	cval  []bool
	rng   uint64

	// dlog records kills/creates for dirty-region tracking while an
	// ApplyDelta runs (delta.go); always nil on exposed triangulations.
	dlog *deltaLog

	insertedCount int
}

type borderFace struct {
	outside     int32    // non-conflicting neighbor tet
	outsideFace int32    // face index of the shared face on the outside tet
	w           [3]int32 // outward-oriented face vertices (from the cavity side)
}

type faceRef struct {
	tet  int32
	face int32
}

// New builds the Delaunay triangulation of pts. Points are inserted in
// Hilbert-curve order for locality (see geom.HilbertOrder) and the tet pool
// is compacted into canonical Hilbert order afterwards (see compact.go), so
// the result is a pure function of the point set: any two builds of the
// same points, whatever the insertion order, produce deeply equal
// Triangulations. Exact duplicates are merged (see
// DuplicateOf). It returns geomerr.ErrDegenerateInput if any point is
// non-finite or fewer than four affinely independent points exist, and
// geomerr.ErrMeshCorrupt if a structural invariant breaks during
// construction (the triangulation is then unusable). It never panics.
func New(pts []geom.Vec3) (*Triangulation, error) {
	return build(pts, true)
}

// NewInputOrder builds the triangulation inserting points in input order
// (no space-filling-curve locality sort). It exists for the insertion-order
// ablation benchmark; prefer New. The result is still canonicalized, so it
// is deeply equal to New's.
func NewInputOrder(pts []geom.Vec3) (*Triangulation, error) {
	return build(pts, false)
}

func build(pts []geom.Vec3, brio bool) (*Triangulation, error) {
	t, err := buildRaw(pts, brio)
	if err != nil {
		return nil, err
	}
	t.compact()
	return t, nil
}

// buildRaw is the serial incremental build without the canonical
// compaction pass.
func buildRaw(pts []geom.Vec3, brio bool) (*Triangulation, error) {
	if len(pts) < 4 {
		return nil, geomerr.Degenerate("delaunay.New", "need at least 4 points, got %d", len(pts))
	}
	// The exact predicates (and the Morton sort) require finite
	// coordinates; reject NaN/Inf up front with the offending index. The
	// error matches both ErrDegenerateInput (the build category) and
	// ErrBadParticle (the per-particle detail).
	for i, p := range pts {
		if !p.IsFinite() {
			return nil, fmt.Errorf("delaunay.New: %w: %w",
				geomerr.ErrDegenerateInput,
				&geomerr.BadParticleError{Index: i, Reason: fmt.Sprintf("non-finite coordinate %v", p)})
		}
	}
	t := &Triangulation{
		pts:     pts,
		vertTet: make([]int32, len(pts)),
		dupOf:   make([]int32, len(pts)),
		rng:     0x9e3779b97f4a7c15,
	}
	for i := range t.dupOf {
		t.dupOf[i] = int32(i)
		t.vertTet[i] = NoTet
	}

	var order []int
	if brio {
		order = geom.HilbertOrder(pts)
	} else {
		order = make([]int, len(pts))
		for i := range order {
			order[i] = i
		}
	}
	used, err := t.initFirstTet(order)
	if err != nil {
		return nil, err
	}
	for _, idx := range order {
		v := int32(idx)
		if v == used[0] || v == used[1] || v == used[2] || v == used[3] {
			continue
		}
		if err := t.insert(v); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// initFirstTet finds four affinely independent points (scanning in Morton
// order), builds the first finite tet plus its four infinite tets, and
// returns the four consumed vertex indices.
func (t *Triangulation) initFirstTet(order []int) ([4]int32, error) {
	p := t.pts
	i0 := int32(order[0])
	i1, i2, i3 := NoTet, NoTet, NoTet
	for _, oi := range order[1:] {
		v := int32(oi)
		if i1 == NoTet {
			if p[v] != p[i0] {
				i1 = v
			}
			continue
		}
		if i2 == NoTet {
			if !collinear(p[i0], p[i1], p[v]) {
				i2 = v
			}
			continue
		}
		if geom.Orient3D(p[i0], p[i1], p[i2], p[v]) != 0 {
			i3 = v
			break
		}
	}
	if i3 == NoTet {
		return [4]int32{}, geomerr.Degenerate("delaunay.New", "all points are coplanar")
	}
	if geom.Orient3D(p[i0], p[i1], p[i2], p[i3]) < 0 {
		i1, i2 = i2, i1
	}

	// One finite tet and four infinite tets. The infinite tet across the
	// face opposite slot i stores (Inf, reversed outward face) so that it
	// is symbolically positively oriented.
	t0 := t.newTet(Tet{V: [4]int32{i0, i1, i2, i3}})
	infs := [4]int32{}
	tv := t.tets[t0].V
	for i := 0; i < 4; i++ {
		f := faceTable[i]
		w0, w1, w2 := tv[f[0]], tv[f[1]], tv[f[2]]
		ti := t.newTet(Tet{V: [4]int32{Inf, w0, w2, w1}})
		infs[i] = ti
		t.tets[t0].N[i] = ti
		t.tets[ti].N[0] = t0
	}
	// Glue the infinite tets to each other along their (Inf, x, y) faces.
	t.linkFacesBrute(append([]int32{t0}, infs[:]...))
	for _, v := range []int32{i0, i1, i2, i3} {
		t.vertTet[v] = t0
	}
	t.last = t0
	t.insertedCount = 4
	return [4]int32{i0, i1, i2, i3}, nil
}

// collinear reports whether a, b, c are exactly collinear, using exact 2D
// orientation tests on all three coordinate projections.
func collinear(a, b, c geom.Vec3) bool {
	if geom.Orient2D(geom.Vec2{X: a.X, Y: a.Y}, geom.Vec2{X: b.X, Y: b.Y}, geom.Vec2{X: c.X, Y: c.Y}) != 0 {
		return false
	}
	if geom.Orient2D(geom.Vec2{X: a.X, Y: a.Z}, geom.Vec2{X: b.X, Y: b.Z}, geom.Vec2{X: c.X, Y: c.Z}) != 0 {
		return false
	}
	if geom.Orient2D(geom.Vec2{X: a.Y, Y: a.Z}, geom.Vec2{X: b.Y, Y: b.Z}, geom.Vec2{X: c.Y, Y: c.Z}) != 0 {
		return false
	}
	return true
}

// linkFacesBrute links unset neighbor pointers among the given tets by
// matching faces on their sorted vertex triples. Only used at init time.
func (t *Triangulation) linkFacesBrute(tets []int32) {
	type key [3]int32
	seen := make(map[key]faceRef)
	for _, ti := range tets {
		tt := &t.tets[ti]
		for f := 0; f < 4; f++ {
			if tt.N[f] != NoTet {
				continue
			}
			ft := faceTable[f]
			k := key{tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]}
			sort3(&k[0], &k[1], &k[2])
			if prev, ok := seen[k]; ok {
				t.tets[ti].N[f] = prev.tet
				t.tets[prev.tet].N[prev.face] = ti
				delete(seen, k)
			} else {
				seen[k] = faceRef{tet: ti, face: int32(f)}
			}
		}
	}
}

func sort3(a, b, c *int32) {
	if *a > *b {
		*a, *b = *b, *a
	}
	if *b > *c {
		*b, *c = *c, *b
	}
	if *a > *b {
		*a, *b = *b, *a
	}
}

func (t *Triangulation) newTet(tet Tet) int32 {
	if tet.N == ([4]int32{}) {
		tet.N = [4]int32{NoTet, NoTet, NoTet, NoTet}
	}
	var idx int32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
		t.tets[idx] = tet
		t.dead[idx] = false
	} else {
		t.tets = append(t.tets, tet)
		t.dead = append(t.dead, false)
		t.mark = append(t.mark, 0)
		t.cmark = append(t.cmark, 0)
		t.cval = append(t.cval, false)
		idx = int32(len(t.tets) - 1)
	}
	if t.dlog != nil {
		t.dlog.noteNew(t, idx)
	}
	return idx
}

func (t *Triangulation) killTet(ti int32) {
	if t.dlog != nil {
		t.dlog.noteKill(t, ti)
	}
	t.dead[ti] = true
	t.free = append(t.free, ti)
}

// NumPoints returns the number of input points (including duplicates).
func (t *Triangulation) NumPoints() int { return len(t.pts) }

// Points returns the input points. The slice is shared, not copied.
func (t *Triangulation) Points() []geom.Vec3 { return t.pts }

// Tets returns the raw tetrahedron store. Entries for which Dead(i) is true
// are free slots and must be skipped; entries with InfSlot() >= 0 are
// infinite. The slice is shared, not copied.
func (t *Triangulation) Tets() []Tet { return t.tets }

// Dead reports whether tet slot i is a free (deleted) slot.
func (t *Triangulation) Dead(i int32) bool { return t.dead[i] }

// IsInfinite reports whether tet i has the infinite vertex.
func (t *Triangulation) IsInfinite(i int32) bool { return t.tets[i].InfSlot() >= 0 }

// DuplicateOf returns, for each input point index, the canonical vertex
// index it was merged with (itself if unique).
func (t *Triangulation) DuplicateOf(i int) int { return int(t.dupOf[i]) }

// VertexTet returns a live tet incident to vertex v, or NoTet if v was a
// duplicate (merged) point.
func (t *Triangulation) VertexTet(v int32) int32 {
	if t.dupOf[v] != v {
		return NoTet
	}
	return t.vertTet[v]
}

// NumFiniteTets counts live finite tetrahedra.
func (t *Triangulation) NumFiniteTets() int {
	n := 0
	for i := range t.tets {
		if !t.dead[i] && t.tets[i].InfSlot() < 0 {
			n++
		}
	}
	return n
}

// ForEachFiniteTet calls fn for every live finite tetrahedron.
func (t *Triangulation) ForEachFiniteTet(fn func(ti int32, tet *Tet)) {
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		tt := &t.tets[i]
		if tt.InfSlot() >= 0 {
			continue
		}
		fn(int32(i), tt)
	}
}

// OutwardFace returns the vertices of face f of tet ti, ordered so the face
// normal points away from V[f] (out of the tet for finite tets).
func (t *Triangulation) OutwardFace(ti int32, f int) (a, b, c int32) {
	tt := &t.tets[ti]
	ft := faceTable[f]
	return tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
}

// TetVolume returns the volume of finite tet ti.
func (t *Triangulation) TetVolume(ti int32) float64 {
	tt := &t.tets[ti]
	return geom.TetVolume(t.pts[tt.V[0]], t.pts[tt.V[1]], t.pts[tt.V[2]], t.pts[tt.V[3]])
}

// VertexVolumes returns, for each canonical vertex, the summed volume of its
// incident finite tetrahedra (the denominator of DTFE equation 2), and a
// flag marking hull vertices (incident to an infinite tet), whose contiguous
// Voronoi cells are unbounded and whose DTFE densities are therefore only
// trustworthy inside ghost zones.
func (t *Triangulation) VertexVolumes() (vol []float64, hull []bool) {
	vol = make([]float64, len(t.pts))
	hull = make([]bool, len(t.pts))
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		tt := &t.tets[i]
		if s := tt.InfSlot(); s >= 0 {
			for j, v := range tt.V {
				if j != s {
					hull[v] = true
				}
			}
			continue
		}
		v := geom.TetVolume(t.pts[tt.V[0]], t.pts[tt.V[1]], t.pts[tt.V[2]], t.pts[tt.V[3]])
		for _, vi := range tt.V {
			vol[vi] += v
		}
	}
	// Duplicates share their canonical vertex's cell.
	for i := range t.dupOf {
		if t.dupOf[i] != int32(i) {
			vol[i] = vol[t.dupOf[i]]
			hull[i] = hull[t.dupOf[i]]
		}
	}
	return vol, hull
}

// HullFace is a convex-hull facet oriented outward (positive side outside
// the hull), with the finite tetrahedron behind it.
type HullFace struct {
	V      [3]int32
	Behind int32 // finite tet adjacent to this hull facet
}

// HullFaces returns all convex-hull facets, outward oriented.
func (t *Triangulation) HullFaces() []HullFace {
	var faces []HullFace
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		tt := &t.tets[i]
		s := tt.InfSlot()
		if s < 0 {
			continue
		}
		ft := faceTable[s]
		// Face opposite Inf has positive side toward the hull interior;
		// reverse it so the positive side faces outward.
		a, b, c := tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
		faces = append(faces, HullFace{V: [3]int32{a, c, b}, Behind: tt.N[s]})
	}
	return faces
}

// Stats summarizes the triangulation.
type Stats struct {
	Points     int
	Inserted   int
	Duplicates int
	FiniteTets int
	HullFacets int
}

// Stats returns summary counts.
func (t *Triangulation) Stats() Stats {
	dups := 0
	for i := range t.dupOf {
		if t.dupOf[i] != int32(i) {
			dups++
		}
	}
	hull := 0
	for i := range t.tets {
		if !t.dead[i] && t.tets[i].InfSlot() >= 0 {
			hull++
		}
	}
	return Stats{
		Points:     len(t.pts),
		Inserted:   t.insertedCount,
		Duplicates: dups,
		FiniteTets: t.NumFiniteTets(),
		HullFacets: hull,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("points=%d inserted=%d dups=%d finiteTets=%d hullFacets=%d",
		s.Points, s.Inserted, s.Duplicates, s.FiniteTets, s.HullFacets)
}
