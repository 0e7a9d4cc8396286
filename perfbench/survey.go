package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"godtfe/internal/domain"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/halo"
	"godtfe/internal/kdtree"
	"godtfe/internal/mpi"
	"godtfe/internal/pipeline"
	"godtfe/internal/render"
)

// The survey workload: the paper's galaxy-galaxy lensing run. Fields are
// centred on the largest friends-of-friends groups of a clustered catalog
// and rendered by pipeline.Run on two in-process ranks with a-priori load
// balancing. Its unit of work is one survey pass over every field.
const (
	surveyN       = 200_000
	surveyHalos   = 400
	surveyFields  = 250
	surveyLen     = 0.04            // field edge, box units
	surveyCube    = surveyLen * 1.5 // triangulation cube edge: BufferFrac 0.25 on each side
	surveyGrid    = 32
	surveyRanks   = 2
	surveySampled = 8 // fields checked bit-for-bit per pass
	setupRepeats  = 5 // set-ups per run; setup_s is their median
)

// surveyConfig is one pass's pipeline configuration. Phase 2 times one
// randomly picked field per rank to fit its cost model, and the
// work-sharing plan follows from that fit; a new pick every pass makes a
// run's median cover the model's good and bad picks alike.
func surveyConfig(seed, pass int64) pipeline.Config {
	return pipeline.Config{
		Box: unitBox, FieldLen: surveyLen, GridN: surveyGrid, BufferFrac: 0.25,
		Workers: 1, LoadBalance: true, KeepFields: true, Seed: seed*1000 + pass,
	}
}

// surveyPass is one pass: a fresh world, the catalog split evenly over
// the ranks, the centres given to rank 0.
type surveyPass struct {
	wall    time.Duration
	results []*pipeline.Result
	bytes   int64
	msgs    int64
}

func runSurveyPass(e *env, pts, centres []geom.Vec3, seed, req int64) (*surveyPass, error) {
	cfg := surveyConfig(seed, req)
	w := mpi.NewWorld(surveyRanks)
	p := &surveyPass{results: make([]*pipeline.Result, surveyRanks)}
	root := e.tr.begin("survey.pass", 0, req)
	t0 := time.Now()
	errs := w.RunEach(func(c *mpi.Comm) error {
		r := c.Rank()
		var ctr []geom.Vec3
		if r == 0 {
			ctr = centres
		}
		id := e.tr.begin("pipeline.Run", root, req)
		res, err := pipeline.Run(c, cfg, pts[r*len(pts)/surveyRanks:(r+1)*len(pts)/surveyRanks], ctr)
		e.tr.end(id)
		p.results[r] = res
		return err
	})
	p.wall = time.Since(t0)
	e.tr.end(root)
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	p.bytes, p.msgs = w.TotalBytes(), w.TotalMessages()
	return p, nil
}

// fieldSpec is the grid pipeline.Run renders for a field at c.
func fieldSpec(c geom.Vec3) render.Spec {
	return render.Spec{
		Min:  geom.Vec2{X: c.X - surveyLen/2, Y: c.Y - surveyLen/2},
		Nx:   surveyGrid,
		Ny:   surveyGrid,
		Cell: surveyLen / surveyGrid,
		ZMin: c.Z - surveyLen/2,
		ZMax: c.Z + surveyLen/2,
	}
}

// fieldCube is the triangulation cube pipeline.Run gathers for a field.
func fieldCube(c geom.Vec3) geom.AABB {
	h := surveyCube / 2
	return geom.AABB{Min: c.Sub(geom.Vec3{X: h, Y: h, Z: h}), Max: c.Add(geom.Vec3{X: h, Y: h, Z: h})}
}

// surveyRef renders the reference for a sampled field from exactly the
// particle sequence pipeline.Run triangulated for it. Render bits depend on
// the order of the input points, so the reference replays Phase 1's
// public steps (domain.Exchange into each rank's halo, kdtree.New, InBox)
// and, for a field shipped by work sharing, the package the sender built.
type surveyRef struct {
	pts   []geom.Vec3
	dec   domain.Decomp
	halos [][]geom.Vec3
	trees []*kdtree.Tree
	grids map[string]*grid.Grid2D
}

func newSurveyRef(pts []geom.Vec3) (*surveyRef, error) {
	dec, err := domain.NewDecomp(unitBox, surveyRanks, surveyCube/2)
	if err != nil {
		return nil, err
	}
	r := &surveyRef{pts: pts, dec: dec, halos: make([][]geom.Vec3, surveyRanks),
		trees: make([]*kdtree.Tree, surveyRanks), grids: map[string]*grid.Grid2D{}}
	err = mpi.Run(surveyRanks, func(c *mpi.Comm) error {
		k := c.Rank()
		owned, ghosts, err := domain.Exchange(c, dec, pts[k*len(pts)/surveyRanks:(k+1)*len(pts)/surveyRanks])
		r.halos[k] = append(owned, ghosts...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference exchange: %w", err)
	}
	for k := range r.trees {
		r.trees[k] = kdtree.New(r.halos[k])
	}
	return r, nil
}

func pick(pts []geom.Vec3, idx []int32) []geom.Vec3 {
	out := make([]geom.Vec3, len(idx))
	for i, id := range idx {
		out[i] = pts[id]
	}
	return out
}

// grid returns the reference for field c. shipped lists, in order, the
// centres that arrived in the same work package (nil for a field computed
// by its owner).
func (r *surveyRef) grid(c geom.Vec3, shipped []geom.Vec3) (*grid.Grid2D, error) {
	key := fmt.Sprint(c, shipped)
	if g, ok := r.grids[key]; ok {
		return g, nil
	}
	owner := r.dec.OwnerOf(c)
	var sel []geom.Vec3
	if shipped == nil {
		sel = pick(r.halos[owner], r.trees[owner].InBox(fieldCube(c), nil))
	} else {
		seen := map[int32]bool{}
		var pkg []geom.Vec3
		for _, sc := range shipped {
			for _, id := range r.trees[owner].InBox(fieldCube(sc), nil) {
				if !seen[id] {
					seen[id] = true
					pkg = append(pkg, r.halos[owner][id])
				}
			}
		}
		sel = pick(pkg, kdtree.New(pkg).InBox(fieldCube(c), nil))
	}
	g, err := directRender(&env{}, 0, 0, sel, fieldSpec(c), &layerCounts{})
	if err != nil {
		return nil, err
	}
	r.grids[key] = g
	return g, nil
}

// checkPass counts the pass's fields into the report: every field must be
// done without error, and the sampled ones must be bit-identical to their
// references.
func checkPass(rep *report, p *surveyPass, nFields int, ref *surveyRef, sampled []geom.Vec3) error {
	got := make(map[geom.Vec3]*grid.Grid2D, nFields)
	shippedOn := make(map[geom.Vec3][]geom.Vec3)
	bad := 0
	for _, res := range p.results {
		var shipped []geom.Vec3
		for _, it := range res.Items {
			if it.Err != "" {
				bad++
			}
			if it.Shipped {
				shipped = append(shipped, it.Center)
			}
		}
		for _, c := range shipped {
			shippedOn[c] = shipped
		}
		for _, st := range res.Status {
			if st.State != pipeline.FieldDone && st.State != pipeline.FieldRecovered {
				bad++
			}
		}
		for _, f := range res.Fields {
			got[f.Center] = f.Grid
		}
	}
	missing := nFields - len(got)
	for _, c := range sampled {
		want, err := ref.grid(c, shippedOn[c])
		if err != nil {
			return fmt.Errorf("reference field at %v: %w", c, err)
		}
		if !sameBits(got[c], want) {
			rep.fail("survey field at %v differs from the direct render", c)
			bad++
		}
	}
	if missing > 0 {
		rep.fail("survey pass returned %d of %d fields", len(got), nFields)
	}
	rep.Attempted += nFields
	rep.Failed += min(nFields, bad+max(missing, 0))
	return nil
}

func runSurvey(e *env) error {
	pts := catalog(surveyN, surveyHalos, e.seed)
	link := 0.2 * halo.MeanSeparation(pts)

	// Set-up: the friends-of-friends search that places the fields.
	var setups []float64
	var groups []halo.Halo
	for i := 0; i < setupRepeats; i++ {
		id := e.tr.begin("halo.find", 0, 0)
		t := time.Now()
		groups = halo.Find(pts, link, 20)
		setups = append(setups, time.Since(t).Seconds())
		e.tr.end(id)
	}
	if len(groups) < surveyFields {
		return fmt.Errorf("catalog has %d groups, need %d fields", len(groups), surveyFields)
	}
	centres := halo.Centers(groups, surveyFields)

	ref, err := newSurveyRef(pts)
	if err != nil {
		return err
	}
	var sampled []geom.Vec3
	for _, i := range sample(len(centres), surveySampled, e.seed) {
		sampled = append(sampled, centres[i])
	}
	sv := &surveyRun{seed: e.seed, pts: pts, centres: centres, ref: ref, sampled: sampled}

	// Warm-up pass, checked but not timed.
	p, err := runSurveyPass(&env{}, pts, centres, e.seed, 0)
	if err != nil {
		return err
	}
	if err := checkPass(e.rep, p, len(centres), ref, sampled); err != nil {
		return err
	}
	e.rep.Attempted, e.rep.Failed = 0, 0

	if e.tr != nil {
		return traceSurvey(e, sv, setups)
	}
	e.rep.set("setup_s", median(setups), len(setups))
	walls, cpu, err := surveyWindow(e, sv, e.seconds)
	if err != nil {
		return err
	}
	e.rep.note("survey passes (ms): %s", fmtMs(walls))
	e.rep.set("p50_ms", median(walls), len(walls))
	e.rep.set("cpu_ms", ms(cpu)/float64(len(walls)), len(walls))
	return nil
}

// surveyWindow runs passes for d (at least three) and returns each pass's
// wall time in ms and the process CPU time the passes spent.
func surveyWindow(e *env, sv *surveyRun, d time.Duration) ([]float64, time.Duration, error) {
	var walls []float64
	var cpu time.Duration
	start := time.Now()
	for len(walls) < 3 || time.Since(start) < d {
		c0 := cpuTime()
		p, err := runSurveyPass(e, sv.pts, sv.centres, sv.seed, int64(len(walls)+1))
		cpu += cpuTime() - c0
		if err != nil {
			return nil, 0, err
		}
		walls = append(walls, ms(p.wall))
		sv.last = p
		// Checking is timed by neither clock: a shipped field's reference
		// depends on the pass's plan, so it may need a fresh build.
		if err := checkPass(e.rep, p, len(sv.centres), sv.ref, sv.sampled); err != nil {
			return nil, 0, err
		}
	}
	return walls, cpu, nil
}

// surveyRun holds one run's fixed survey inputs and checks.
type surveyRun struct {
	seed         int64
	pts, centres []geom.Vec3
	ref          *surveyRef
	sampled      []geom.Vec3
	last         *surveyPass
}

// traceSurvey measures half the window untraced and half traced, then
// replays the last traced pass's fields outside pipeline.Run to split its
// compute into kdtree select, Delaunay build, density, pack and march.
func traceSurvey(e *env, sv *surveyRun, setups []float64) error {
	rep := e.rep
	untraced, _, err := surveyWindow(&env{seed: e.seed, rep: rep}, sv, e.seconds/2)
	if err != nil {
		return err
	}
	ms0 := memStats()
	traced, _, err := surveyWindow(e, sv, e.seconds/2)
	if err != nil {
		return err
	}
	setGoStats(rep, ms0, len(traced))
	p := sv.last

	var part, model, share float64
	var shipped int
	var compute []float64
	var predErr []float64
	for _, res := range p.results {
		part += res.Phases.Partition
		model += res.Phases.Model
		share += res.Phases.WorkShare
		shipped += res.Sent
		compute = append(compute, res.Phases.Triangulate+res.Phases.Render)
		if len(res.Items) > 0 && !res.Items[0].Shipped && res.LocalWork > 0 {
			// Phase 2 renders one sampled item; the replay below counts it.
			model -= res.Items[0].TriTime + res.Items[0].RenderTime
		}
		for _, it := range res.Items {
			meas := it.TriTime + it.RenderTime
			if pred := it.PredTri + it.PredRender; pred > 0 && meas > 0 {
				predErr = append(predErr, math.Abs(pred-meas)/meas)
			}
		}
	}
	sort.Float64s(compute)
	rep.set("pipeline.partition_s", part, len(p.results))
	rep.set("pipeline.model_s", model, len(p.results))
	rep.set("pipeline.workshare_s", share, len(p.results))
	rep.set("pipeline.imbalance", compute[len(compute)-1]/(sum(compute)/float64(len(compute))), len(compute))
	rep.set("pipeline.shipped", float64(shipped), len(p.results))
	rep.set("model.pred_err", median(predErr), len(predErr))
	rep.set("mpi.bytes", float64(p.bytes), 1)
	rep.set("mpi.msgs", float64(p.msgs), 1)
	rep.set("halo.find_s", median(setups), len(setups))

	// Replay every field the pass computed, in one process, from the
	// owning rank's halo tree.
	var lc layerCounts
	root := e.tr.begin("survey.replay", 0, -1)
	for _, res := range p.results {
		for _, it := range res.Items {
			owner := sv.ref.dec.OwnerOf(it.Center)
			id := e.tr.begin("kdtree.select", root, -1)
			sel := pick(sv.ref.halos[owner], sv.ref.trees[owner].InBox(fieldCube(it.Center), nil))
			e.tr.end(id)
			if len(sel) < 16 { // pipeline.Config's default MinParticles
				continue
			}
			if _, err := directRender(e, root, -1, sel, fieldSpec(it.Center), &lc); err != nil {
				return err
			}
		}
	}
	e.tr.end(root)
	self := selfTimes(e.tr.snapshot(), root)
	n := len(sv.centres)
	setLayers(rep, self, total, &lc, n)
	rep.set("kdtree.select_ms", ms(total(self["kdtree.select"])), n)

	w := median(untraced) / 1e3
	var replayed time.Duration
	for _, ds := range self {
		replayed += total(ds)
	}
	attributed := part + model + share + replayed.Seconds()
	setReconcile(rep, attributed/(float64(surveyRanks)*w), len(untraced))
	rep.set("trace.overhead_frac", (median(traced)/1e3-w)/w, len(traced))
	rep.note("survey reconcile: rank-seconds %.3f = partition %.3f + model %.3f + workshare %.3f + replayed compute %.3f + unattributed %.3f",
		float64(surveyRanks)*w, part, model, share, replayed.Seconds(), float64(surveyRanks)*w-attributed)
	return nil
}
