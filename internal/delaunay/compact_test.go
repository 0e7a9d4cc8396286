package delaunay

import (
	"math/rand"
	"reflect"
	"testing"

	"godtfe/internal/geom"
)

// dirtyCatalog is a pathological mix: exact duplicates, points exactly on
// the dyadic planes of the unit box (x=0.5, x=0.25, ...), coplanar runs, a
// dense clump straddling the center, and corner outliers that stretch the
// bounding box far beyond the bulk of the points.
func dirtyCatalog(n int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Vec3, 0, n)
	for len(pts) < n {
		switch rng.Intn(8) {
		case 0: // exact duplicate of an earlier point
			if len(pts) > 0 {
				pts = append(pts, pts[rng.Intn(len(pts))])
				continue
			}
			fallthrough
		case 1, 2: // uniform random
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
		case 3: // exactly on a dyadic plane x, y or z in {0.25, 0.5, 0.75}
			p := geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
			planes := []float64{0.25, 0.5, 0.75}
			switch rng.Intn(3) {
			case 0:
				p.X = planes[rng.Intn(3)]
			case 1:
				p.Y = planes[rng.Intn(3)]
			default:
				p.Z = planes[rng.Intn(3)]
			}
			pts = append(pts, p)
		case 4: // coplanar sheet fragment at z=0.5
			pts = append(pts, geom.Vec3{X: rng.Float64(), Y: rng.Float64(), Z: 0.5})
		case 5: // dense clump straddling the center
			pts = append(pts, geom.Vec3{
				X: 0.5 + 0.01*(rng.Float64()-0.5),
				Y: 0.5 + 0.01*(rng.Float64()-0.5),
				Z: 0.5 + 0.01*(rng.Float64()-0.5),
			})
		case 6: // snapped to a coarse grid: cospherical shells
			pts = append(pts, geom.Vec3{
				X: float64(rng.Intn(9)) / 8,
				Y: float64(rng.Intn(9)) / 8,
				Z: float64(rng.Intn(9)) / 8,
			})
		default: // corner outliers stretching the bounding box
			pts = append(pts, geom.Vec3{
				X: float64(rng.Intn(2)),
				Y: float64(rng.Intn(2)),
				Z: float64(rng.Intn(2)),
			})
		}
	}
	return pts
}

func testCatalogSet(n int) map[string][]geom.Vec3 {
	return map[string][]geom.Vec3{
		"clustered": clusteredPoints(n, 42),
		"random":    randomCatalog(n, 7),
		"lattice":   latticeCatalog(n),
		"snapped":   snappedCatalog(n, 11),
		"dirty":     dirtyCatalog(n, 99),
	}
}

// requireTriEqual asserts two triangulations are deeply equal — the full
// bit-identity contract: same tet pool in the same order with the same
// slot orders and adjacency, same anchors, same duplicate mapping, same
// scratch reset state. Everything downstream (VertexVolumes accumulation
// order, gradient bases, SoA layout, grid and PGM bytes) is a pure
// function of this state.
func requireTriEqual(t *testing.T, want, got *Triangulation) {
	t.Helper()
	if len(want.tets) != len(got.tets) {
		t.Fatalf("tet pool size: want %d, got %d", len(want.tets), len(got.tets))
	}
	for i := range want.tets {
		if want.tets[i] != got.tets[i] {
			t.Fatalf("tet %d: want %+v, got %+v", i, want.tets[i], got.tets[i])
		}
	}
	if !reflect.DeepEqual(want.dead, got.dead) {
		t.Fatal("dead slices differ")
	}
	if !reflect.DeepEqual(want.vertTet, got.vertTet) {
		for v := range want.vertTet {
			if want.vertTet[v] != got.vertTet[v] {
				t.Fatalf("vertTet[%d]: want %d, got %d", v, want.vertTet[v], got.vertTet[v])
			}
		}
	}
	if !reflect.DeepEqual(want.dupOf, got.dupOf) {
		t.Fatal("dupOf slices differ")
	}
	if want.insertedCount != got.insertedCount {
		t.Fatalf("insertedCount: want %d, got %d", want.insertedCount, got.insertedCount)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("triangulations differ outside the checked fields (scratch state?)")
	}
}

// TestBuildOrderIndependence: the canonical compaction makes the build a
// pure function of the point set — Hilbert insertion order and raw input
// order must produce deeply equal triangulations.
func TestBuildOrderIndependence(t *testing.T) {
	for name, pts := range testCatalogSet(900) {
		t.Run(name, func(t *testing.T) {
			a, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewInputOrder(pts)
			if err != nil {
				t.Fatal(err)
			}
			requireTriEqual(t, a, b)
		})
	}
}
