package main

import (
	"fmt"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/mpi"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
)

// The map workload: one large sky map of a 100k-particle catalog through
// pipeline.RunDistributedRender on two in-process ranks, one march worker
// each (replication mode: both ranks build the full mesh, the coordinator
// tiles the grid, scatters, gathers and stitches). Its unit of work is one
// stitched map; set-up is the single-process build of the same mesh that
// the direct reference render needs.
const (
	mapN     = 100_000
	mapHalos = 200
	mapGrid  = 256
	mapRanks = 2
	// The map's set-up is three times longer than the others', so it
	// repeats fewer times.
	mapSetupRepeats = 3
)

func mapSpec() render.Spec {
	return render.Spec{Nx: mapGrid, Ny: mapGrid, Cell: 1.0 / mapGrid, Samples: 1}
}

type mapRun struct {
	wall   time.Duration
	res    *pipeline.DistRenderResult
	bytes  int64
	msgs   int64
	busy   time.Duration // the busiest rank's march time
	result *grid.Grid2D
}

func runOneMap(e *env, pts []geom.Vec3, req int64) (*mapRun, error) {
	cfg := pipeline.DistRenderConfig{Spec: mapSpec(), Workers: 1, Sched: render.ScheduleDynamic}
	w := mpi.NewWorld(mapRanks)
	out := &mapRun{}
	id := e.tr.begin("pipeline.RunDistributedRender", 0, req)
	t0 := time.Now()
	errs := w.RunEach(func(c *mpi.Comm) error {
		var in []geom.Vec3
		if c.Rank() == 0 {
			in = pts
		}
		res, err := pipeline.RunDistributedRender(c, cfg, in)
		if c.Rank() == 0 {
			out.res = res
		}
		return err
	})
	out.wall = time.Since(t0)
	e.tr.end(id)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	if out.res == nil || out.res.Result == nil {
		return nil, fmt.Errorf("rank 0 returned no map")
	}
	out.bytes, out.msgs = w.TotalBytes(), w.TotalMessages()
	perRank := make([]time.Duration, mapRanks)
	for _, st := range out.res.Stats {
		perRank[st.Worker/cfg.Workers%mapRanks] += st.Busy
	}
	for _, b := range perRank {
		out.busy = max(out.busy, b)
	}
	out.result = out.res.Grid
	return out, nil
}

func runMap(e *env) error {
	pts := catalog(mapN, mapHalos, e.seed)

	// Set-up: the single-process mesh build, repeated for a median.
	var setups []float64
	var lc layerCounts
	var refM *render.Marcher
	for i := 0; i < mapSetupRepeats; i++ {
		lc = layerCounts{}
		t := time.Now()
		m, err := buildMarcher(e, 0, 0, pts, &lc)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		refM = m
	}
	ref, st, err := marchOnce(e, 0, 0, refM, mapSpec())
	if err != nil {
		return err
	}
	lc.addStats(st)
	refM = nil

	// Warm-up map, checked but not timed.
	warmMap, err := runOneMap(&env{}, pts, 0)
	if err != nil {
		return err
	}
	checkMap(newReport(), warmMap, ref)

	if e.tr != nil {
		return traceMap(e, pts, ref, &lc)
	}
	walls, cpu, _, err := mapWindow(e, pts, ref, e.seconds)
	if err != nil {
		return err
	}
	e.rep.set("setup_s", median(setups), len(setups))
	e.rep.note("maps (ms): %s; set-ups (s): %v", fmtMs(walls), setups)
	e.rep.set("p50_ms", median(walls), len(walls))
	e.rep.set("cpu_ms", ms(cpu)/float64(len(walls)), len(walls))
	return nil
}

// checkMap counts one map: complete and bit-identical to the direct render.
func checkMap(rep *report, m *mapRun, ref *grid.Grid2D) {
	rep.Attempted++
	switch {
	case m.res.Incomplete:
		rep.fail("map incomplete: %v", m.res.Failures)
		rep.Failed++
	case !sameBits(m.result, ref):
		rep.fail("stitched map differs from the direct single-process render")
		rep.Failed++
	}
}

// mapWindow renders maps for d (at least three) and returns each map's
// wall time in ms, the process CPU time the maps spent, and the last map.
func mapWindow(e *env, pts []geom.Vec3, ref *grid.Grid2D, d time.Duration) ([]float64, time.Duration, *mapRun, error) {
	var walls []float64
	var cpu time.Duration
	start := time.Now()
	var last *mapRun
	for len(walls) < 3 || time.Since(start) < d {
		c0 := cpuTime()
		m, err := runOneMap(e, pts, int64(len(walls)+1))
		cpu += cpuTime() - c0
		if err != nil {
			return nil, 0, nil, err
		}
		walls = append(walls, ms(m.wall))
		checkMap(e.rep, m, ref)
		last = m
	}
	return walls, cpu, last, nil
}

// traceMap measures half the window untraced and half traced. The map's
// layers come from the traced maps (march busy per rank, messages) and
// from the set-up's direct build and render of the same catalog.
func traceMap(e *env, pts []geom.Vec3, ref *grid.Grid2D, lc *layerCounts) error {
	rep := e.rep
	untraced, _, _, err := mapWindow(&env{rep: rep}, pts, ref, e.seconds/2)
	if err != nil {
		return err
	}
	m0 := memStats()
	traced, _, m, err := mapWindow(e, pts, ref, e.seconds/2)
	if err != nil {
		return err
	}
	setGoStats(rep, m0, len(traced))
	self := selfTimes(e.tr.snapshot(), 0)
	setLayers(rep, self, medianOf, lc, 1)
	rep.set("mpi.bytes", float64(m.bytes), 1)
	rep.set("mpi.msgs", float64(m.msgs), 1)
	rep.set("distrender.march_busy_s", m.busy.Seconds(), mapRanks)
	rep.set("distrender.redispatched", float64(m.res.Redispatched), 1)
	build := medianOf(self["delaunay.build"]) + medianOf(self["dtfe.field"]) + medianOf(self["render.pack"])
	rep.set("distrender.overhead_s", (m.wall - build - m.busy).Seconds(), 1)
	w := median(untraced) / 1e3
	setReconcile(rep, (build+m.busy).Seconds()/w, len(untraced))
	rep.set("trace.overhead_frac", (median(traced)/1e3-w)/w, len(traced))
	rep.note("map reconcile: wall %.3fs = build+field+pack %.3fs + busiest rank march %.3fs + unattributed %.3fs",
		w, build.Seconds(), m.busy.Seconds(), w-(build+m.busy).Seconds())
	return nil
}
