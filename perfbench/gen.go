package main

import (
	"math"
	"math/rand"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/geom"
	"godtfe/internal/render"
	"godtfe/internal/synth"
)

// Everything the program under test receives is generated here from the
// run's seed: catalogs, the open-loop request schedule and the delta
// sequence. Generation is the benchmark's own work and is never timed.

var unitBox = geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}

// catalog returns a clustered catalog of n particles in the unit box:
// nHalos halos, each a one-halo synth.HaloSet (NFW-like profile, random
// centre and scale radius), holding 65% of the particles, plus a uniform
// background. The halo masses are fixed Pareto quantiles (slope 1.8), so
// per-field costs are heavy-tailed while every seed draws the same mass
// spectrum; the seed places the halos and their particles. Scale radii of
// 0.002-0.01 give friends-of-friends groups to centre fields on.
func catalog(n, nHalos int, seed int64) []geom.Vec3 {
	rng := rand.New(rand.NewSource(seed + streamCatalog))
	spec := synth.DefaultHaloSpec()
	spec.NHalos, spec.HaloFrac = 1, 1
	spec.RScaleMin, spec.RScaleMax = 0.002, 0.01
	w := make([]float64, nHalos)
	var wsum float64
	for h := range w {
		w[h] = math.Pow((float64(h)+0.5)/float64(nHalos), -1/1.8)
		wsum += w[h]
	}
	inHalos := 0.65 * float64(n)
	pts := make([]geom.Vec3, 0, n)
	for h := range w {
		m := int(inHalos * w[h] / wsum)
		pts = append(pts, synth.HaloSet(m, unitBox, spec, rng.Int63())...)
	}
	pts = append(pts, synth.Uniform(n-len(pts), unitBox, rng.Int63())...)
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// Stream offsets keep the sub-generators of one seed independent.
const (
	streamCatalog int64 = iota * 1_000_003
	streamSchedule
	streamDelta
	streamSample
)

// reqKind classifies a read in the serve/churn mix.
type reqKind uint8

const (
	kindHot    reqKind = iota // whole-grid repeat of a small hot set
	kindWindow                // overlapping window of a hot coalescing family
	kindFresh                 // a spec never requested before
)

func (k reqKind) String() string {
	return [...]string{"hot", "window", "fresh"}[k]
}

// mix is the serve/churn read mix and grid geometry.
type mix struct {
	Grid       int     // whole-grid side in cells
	HotSpecs   int     // size of the hot whole-grid set
	Families   int     // hot coalescing families for windows
	WindowFrac float64 // share of reads that are windows
	FreshFrac  float64 // share of reads that are fresh specs
}

// read is one scheduled request of the open loop.
type read struct {
	Due  time.Duration // offset from the start of the measured window
	Kind reqKind
	Spec render.Spec
}

// baseSpec is the whole-grid spec over the unit box.
func (m mix) baseSpec() render.Spec {
	return render.Spec{Nx: m.Grid, Ny: m.Grid, Cell: 1 / float64(m.Grid), Samples: 1}
}

// hotSpec is member i of the hot whole-grid set.
func (m mix) hotSpec(i int) render.Spec {
	s := m.baseSpec()
	s.Seed = int64(1 + i)
	return s
}

// familySpec is the full window of hot family f; every window of the
// family is a sub-grid of it.
func (m mix) familySpec(f int) render.Spec {
	s := m.baseSpec()
	s.Seed = int64(1000 + f)
	return s
}

// schedule returns n reads due every interval apart. The mix's shares are
// exact (a shuffled list of kinds), so every seed offers the same amount
// of each kind of work; the seed decides the order, the hot spec, the
// family and the window of each read. Fresh specs get never-repeating
// jitter seeds.
func (m mix) schedule(n int, interval time.Duration, seed int64) []read {
	rng := rand.New(rand.NewSource(seed + streamSchedule))
	kinds := make([]reqKind, n)
	nFresh := int(m.FreshFrac * float64(n))
	nWindow := int(m.WindowFrac * float64(n))
	for i := range kinds {
		switch {
		case i < nFresh:
			kinds[i] = kindFresh
		case i < nFresh+nWindow:
			kinds[i] = kindWindow
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	out := make([]read, n)
	fresh := int64(1_000_000)
	half := m.Grid / 2
	for i, k := range kinds {
		r := read{Due: time.Duration(i) * interval, Kind: k}
		switch k {
		case kindFresh:
			r.Spec = m.baseSpec()
			r.Spec.Seed = fresh
			fresh++
		case kindWindow:
			r.Spec = m.familySpec(rng.Intn(m.Families))
			r.Spec.Nx = half + rng.Intn(half+1)
			r.Spec.Ny = half + rng.Intn(half+1)
		default:
			r.Spec = m.hotSpec(rng.Intn(m.HotSpecs))
		}
		out[i] = r
	}
	return out
}

// bandDeltas returns a sequence of n band-churn deltas over pts: each
// removes frac of the catalog from a narrow interior x-band and adds as
// many fresh points inside the same band, so the bounding box (and hence
// the incremental, non-DirtyAll update path) is preserved. The bands step
// through x on a fixed low-discrepancy sequence, so every seed dirties the
// same regions; the seed picks the points. It also returns the final point
// set after applying every delta textually.
func bandDeltas(pts []geom.Vec3, n int, frac float64, seed int64) ([]delaunay.Delta, []geom.Vec3) {
	rng := rand.New(rand.NewSource(seed + streamDelta))
	cur := append([]geom.Vec3(nil), pts...)
	k := int(frac * float64(len(pts)))
	if k < 1 {
		k = 1
	}
	const halfBand = 0.05
	out := make([]delaunay.Delta, n)
	for u := range out {
		cx := 0.2 + 0.6*math.Mod(float64(u)*0.6180339887498949, 1)
		var d delaunay.Delta
		for _, i := range rng.Perm(len(cur)) {
			p := cur[i]
			if p.X > cx-halfBand && p.X < cx+halfBand && interior(p) {
				d.Remove = append(d.Remove, i)
				if len(d.Remove) == k {
					break
				}
			}
		}
		for range d.Remove {
			d.Add = append(d.Add, geom.Vec3{
				X: cx + halfBand*(2*rng.Float64()-1),
				Y: 0.1 + 0.8*rng.Float64(),
				Z: 0.1 + 0.8*rng.Float64(),
			})
		}
		out[u] = d
		cur = applyText(cur, d)
	}
	return out, cur
}

// interior keeps removals away from the box faces, where hull vertices
// live: removing one would change the bounding box.
func interior(p geom.Vec3) bool {
	return p.Y > 0.05 && p.Y < 0.95 && p.Z > 0.05 && p.Z < 0.95
}

// applyText applies a delta to a point list with ApplyDelta's indexing:
// survivors keep their order and added points are appended.
func applyText(pts []geom.Vec3, d delaunay.Delta) []geom.Vec3 {
	rm := make(map[int]bool, len(d.Remove))
	for _, r := range d.Remove {
		rm[r] = true
	}
	out := make([]geom.Vec3, 0, len(pts)-len(rm)+len(d.Add))
	for i, p := range pts {
		if !rm[i] {
			out = append(out, p)
		}
	}
	return append(out, d.Add...)
}

// sample picks k distinct indices of [0, n) from the run's sample stream.
func sample(n, k int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed + streamSample))
	if k > n {
		k = n
	}
	return rng.Perm(n)[:k]
}
