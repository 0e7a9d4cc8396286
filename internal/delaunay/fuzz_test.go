package delaunay

import (
	"errors"
	"math"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// decodeFuzzPoints maps raw fuzz bytes onto a point set biased toward the
// triangulator's hard cases: each coordinate is one byte quantized to a
// 1/16 lattice (so duplicates, collinear runs, coplanar sheets, and
// cospherical shells are common), with two reserved byte values injecting
// non-finite coordinates.
func decodeFuzzPoints(data []byte, maxPts int) []geom.Vec3 {
	n := len(data) / 3
	if n > maxPts {
		n = maxPts
	}
	pts := make([]geom.Vec3, 0, n)
	coord := func(b byte) float64 {
		switch b {
		case 0xff:
			return math.NaN()
		case 0xfe:
			return math.Inf(1)
		}
		return float64(b) / 16
	}
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Vec3{
			X: coord(data[3*i]),
			Y: coord(data[3*i+1]),
			Z: coord(data[3*i+2]),
		})
	}
	return pts
}

// FuzzDelaunayInsert feeds degenerate point sets to the incremental
// triangulator. The contract: New either succeeds with a mesh that passes
// the structural validator, or fails with an error in the typed taxonomy
// (ErrDegenerateInput for unusable input, ErrMeshCorrupt/ErrLocateDiverged
// for internal failures) — it must never panic.
func FuzzDelaunayInsert(f *testing.F) {
	seed := func(pts []geom.Vec3) {
		b := make([]byte, 0, 3*len(pts))
		for _, p := range pts {
			enc := func(v float64) byte {
				if math.IsNaN(v) {
					return 0xff
				}
				if math.IsInf(v, 0) {
					return 0xfe
				}
				return byte(v * 16)
			}
			b = append(b, enc(p.X), enc(p.Y), enc(p.Z))
		}
		f.Add(b)
	}

	// Historical panic triggers: every seed below used to reach a panic()
	// in the insertion, predicate, or cavity code before the taxonomy.
	same := geom.Vec3{X: 1, Y: 1, Z: 1}
	seed([]geom.Vec3{same, same, same, same, same})
	var collinear []geom.Vec3
	for i := 0; i < 6; i++ {
		collinear = append(collinear, geom.Vec3{X: float64(i), Y: float64(i), Z: float64(i)})
	}
	seed(collinear)
	var sheet []geom.Vec3
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			sheet = append(sheet, geom.Vec3{X: float64(i), Y: float64(j), Z: 2})
		}
	}
	seed(sheet)
	seed([]geom.Vec3{{X: math.NaN()}, {X: 1}, {Y: 1}, {Z: 1}})
	var lattice []geom.Vec3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				lattice = append(lattice, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	seed(lattice) // cospherical shells everywhere
	seed([]geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}, {X: 1, Y: 1, Z: 1}, {X: math.Inf(1)}})
	for _, s := range stitchBoundarySeeds() {
		seed(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodeFuzzPoints(data, 48)
		tri, err := New(pts)
		if err != nil {
			if !errors.Is(err, geomerr.ErrDegenerateInput) &&
				!errors.Is(err, geomerr.ErrMeshCorrupt) &&
				!errors.Is(err, geomerr.ErrLocateDiverged) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}
		if err := tri.Validate(); err != nil {
			t.Fatalf("accepted mesh fails validation: %v", err)
		}
	})
}

// FuzzDelaunayDelta replays random edit scripts against the rebuild
// oracle. The input encodes a base catalog followed by an op stream
// (removals by index, insertions by quantized coordinate); ops are
// grouped into small deltas applied in sequence. After every delta the
// incremental state must be deeply equal to a from-scratch build of the
// edited point set, or both sides must reject it with the typed
// taxonomy — ApplyDelta may never panic, corrupt the mesh, or diverge
// from the oracle.
func FuzzDelaunayDelta(f *testing.F) {
	enc := func(v float64) byte {
		if math.IsNaN(v) {
			return 0xff
		}
		if math.IsInf(v, 0) {
			return 0xfe
		}
		return byte(v * 16)
	}
	opRemove := func(idx int) []byte { return []byte{byte(idx << 1)} }
	opAdd := func(p geom.Vec3) []byte { return []byte{1, enc(p.X), enc(p.Y), enc(p.Z)} }
	seed := func(base []geom.Vec3, ops ...[]byte) {
		b := []byte{byte(len(base))}
		for _, p := range base {
			b = append(b, enc(p.X), enc(p.Y), enc(p.Z))
		}
		for _, op := range ops {
			b = append(b, op...)
		}
		f.Add(b)
	}

	var lattice []geom.Vec3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				lattice = append(lattice, geom.Vec3{X: float64(i) / 16, Y: float64(j) / 16, Z: float64(k) / 16})
			}
		}
	}
	// Insert-then-remove the same point in one delta: the removal index
	// names the live center vertex while the add re-supplies its exact
	// coordinates, so the duplicate bookkeeping and the cavity repair land
	// in the same surgery.
	seed(lattice, opRemove(13), opAdd(lattice[13]))
	// Removal emptying a whole block: two clusters separated by a void;
	// the script deletes one cluster entirely, one vertex per op.
	voids := stitchBoundarySeeds()[2]
	var emptyBlock [][]byte
	for i := 1; i < len(voids); i += 2 {
		emptyBlock = append(emptyBlock, opRemove(i))
	}
	seed(voids, emptyBlock...)
	// Hull-vertex removal: the strict bounding-box corner goes away, so
	// the star repair must handle outer wedges (or fall back) and the
	// bbox shrinks.
	corner := append(append([]geom.Vec3(nil), lattice...), geom.Vec3{X: 15.0 / 16, Y: 15.0 / 16, Z: 15.0 / 16})
	seed(corner, opRemove(27), opRemove(0))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nb := int(data[0])
		data = data[1:]
		if nb > len(data)/3 {
			nb = len(data) / 3
		}
		if nb == 0 {
			return
		}
		cur := decodeFuzzPoints(data[:3*nb], nb)
		rest := data[3*nb:]
		tri, err := New(cur)
		if err != nil {
			if !errors.Is(err, geomerr.ErrDegenerateInput) &&
				!errors.Is(err, geomerr.ErrMeshCorrupt) &&
				!errors.Is(err, geomerr.ErrLocateDiverged) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}

		i, ops := 0, 0
		for i < len(rest) && ops < 24 {
			var d Delta
			seen := make(map[int]bool)
			for len(d.Remove)+len(d.Add) < 4 && i < len(rest) {
				op := rest[i]
				if op&1 == 1 && i+3 < len(rest) {
					d.Add = append(d.Add, decodeFuzzPoints(rest[i+1:i+4], 1)[0])
					i += 4
				} else {
					i++
					idx := int(op>>1) % len(cur)
					if seen[idx] {
						continue
					}
					seen[idx] = true
					d.Remove = append(d.Remove, idx)
				}
				ops++
			}
			if len(d.Remove)+len(d.Add) == 0 {
				continue
			}
			final := applyOracle(cur, d)
			got, _, err := tri.ApplyDelta(d)
			want, werr := New(final)
			if werr != nil {
				if err == nil {
					t.Fatalf("oracle rejected the edited set (%v) but ApplyDelta accepted it", werr)
				}
				if !errors.Is(err, geomerr.ErrDegenerateInput) &&
					!errors.Is(err, geomerr.ErrMeshCorrupt) &&
					!errors.Is(err, geomerr.ErrLocateDiverged) {
					t.Fatalf("error outside the taxonomy: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ApplyDelta failed (%v) where a rebuild of the edited set succeeds", err)
			}
			if verr := got.Validate(); verr != nil {
				t.Fatalf("updated triangulation fails validation: %v", verr)
			}
			requireTriEqual(t, want, got)
			tri, cur = got, final
		}
	})
}

// stitchBoundarySeeds are point sets engineered to land on or straddle
// dyadic planes of the occupied box: coincident points, cospherical
// shells and tets spanning a void. Shared by FuzzDelaunayInsert and
// FuzzDelaunayDelta.
func stitchBoundarySeeds() [][]geom.Vec3 {
	var seeds [][]geom.Vec3

	// A plane of points exactly at the x midpoint of the occupied range,
	// plus corner anchors pinning the bounding box.
	var seam []geom.Vec3
	for j := 0; j < 4; j++ {
		for k := 0; k < 4; k++ {
			seam = append(seam, geom.Vec3{X: 8.0 / 16, Y: float64(4 * j), Z: float64(4 * k)})
		}
	}
	seam = append(seam, geom.Vec3{}, geom.Vec3{X: 1, Y: 12, Z: 12})
	seeds = append(seeds, seam)

	// Coincident pairs astride every quarter plane: duplicates whose
	// canonical points sit in different blocks of a 4-way split.
	var astride []geom.Vec3
	for i := 0; i < 4; i++ {
		q := float64(4*i) / 16
		p := geom.Vec3{X: q, Y: q, Z: q}
		astride = append(astride, p, p,
			geom.Vec3{X: q, Y: 15.0 / 16, Z: float64(i) / 16})
	}
	astride = append(astride, geom.Vec3{X: 15.0 / 16, Y: 0, Z: 15.0 / 16})
	seeds = append(seeds, astride)

	// Two dense clusters separated by a void: the split plane falls in the
	// void, so every tet crosses it.
	var voids []geom.Vec3
	for i := 0; i < 8; i++ {
		voids = append(voids,
			geom.Vec3{X: float64(i%2) / 16, Y: float64(i/2%2) / 16, Z: float64(i/4) / 16},
			geom.Vec3{X: (14 + float64(i%2)) / 16, Y: (14 + float64(i/2%2)) / 16, Z: (14 + float64(i/4)) / 16})
	}
	seeds = append(seeds, voids)

	return seeds
}
