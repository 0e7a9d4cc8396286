package main

import (
	"math"
	"runtime"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// Direct single-process renders through each layer's public entry point,
// used both as correctness references and as the traced runs' replays,
// and the reporting of the layer metrics they yield.

// layerCounts accumulates the exact counts of direct renders; their times
// come from the spans around each call.
type layerCounts struct {
	allocB                   uint64
	tets, steps, clean, cols int64
}

// directRender renders spec from pts in one process through each layer's
// public entry point, under a span each: delaunay.New, dtfe.NewField,
// render.NewMarcher and Marcher.Render.
func directRender(e *env, parent, req int64, pts []geom.Vec3, spec render.Spec, lc *layerCounts) (*grid.Grid2D, error) {
	m, err := buildMarcher(e, parent, req, pts, lc)
	if err != nil {
		return nil, err
	}
	g, st, err := marchOnce(e, parent, req, m, spec)
	if err != nil {
		return nil, err
	}
	lc.addStats(st)
	return g, nil
}

// buildMarcher builds the mesh, density field and SoA marcher for pts.
func buildMarcher(e *env, parent, req int64, pts []geom.Vec3, lc *layerCounts) (*render.Marcher, error) {
	m0 := memStats()
	id := e.tr.begin("delaunay.build", parent, req)
	tri, err := delaunay.New(pts)
	e.tr.end(id)
	lc.allocB += memStats().TotalAlloc - m0.TotalAlloc
	if err != nil {
		return nil, err
	}
	lc.tets += int64(tri.NumFiniteTets())
	id = e.tr.begin("dtfe.field", parent, req)
	f, err := dtfe.NewField(tri, nil)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = e.tr.begin("render.pack", parent, req)
	m := render.NewMarcher(f)
	e.tr.end(id)
	return m, nil
}

// marchOnce renders spec with one worker under a render.march span.
func marchOnce(e *env, parent, req int64, m *render.Marcher, spec render.Spec) (*grid.Grid2D, []render.WorkerStat, error) {
	id := e.tr.begin("render.march", parent, req)
	g, st, err := m.Render(spec, 1, render.ScheduleDynamic)
	e.tr.end(id)
	return g, st, err
}

func (lc *layerCounts) addStats(st []render.WorkerStat) {
	oc := render.TotalOutcomes(st)
	for _, s := range st {
		lc.steps += s.Steps
	}
	lc.clean += oc.Clean
	lc.cols += oc.Total()
}

// sameBits reports whether two grids are bit-identical.
func sameBits(a, b *grid.Grid2D) bool {
	if a == nil || b == nil || a.Nx != b.Nx || a.Ny != b.Ny || a.Min != b.Min || a.Cell != b.Cell || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// setLayers reports direct-render layer times, combining each layer's
// spans with agg (their total, or their median), and the exact counts.
func setLayers(rep *report, self map[string][]time.Duration, agg func([]time.Duration) time.Duration, lc *layerCounts, n int) {
	for _, l := range []struct{ span, metric string }{
		{"delaunay.build", "delaunay.build_ms"},
		{"dtfe.field", "dtfe.field_ms"},
		{"render.pack", "render.pack_ms"},
		{"render.march", "render.march_ms"},
	} {
		if ds := self[l.span]; len(ds) > 0 {
			rep.set(l.metric, ms(agg(ds)), len(ds))
		}
	}
	rep.set("delaunay.build_alloc_mb", float64(lc.allocB)/(1<<20), n)
	rep.set("delaunay.tets", float64(lc.tets), n)
	rep.set("render.steps", float64(lc.steps), n)
	if lc.cols > 0 {
		rep.set("render.clean_frac", float64(lc.clean)/float64(lc.cols), int(lc.cols))
	}
}

// medianOf is the median span, for layers timed once per operation.
func medianOf(ds []time.Duration) time.Duration { return time.Duration(median(durMs(ds)) * 1e6) }

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// setGoStats reports GC and allocation over a window, per unit of work.
func setGoStats(rep *report, m0 runtime.MemStats, units int) {
	m1 := memStats()
	u := float64(units)
	rep.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC)/u, units)
	rep.set("go.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/u, units)
	rep.set("go.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/u, units)
}
