package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/fieldserve"
	"godtfe/internal/geom"
	"godtfe/internal/grid"
	"godtfe/internal/render"
)

// The serve and churn workloads drive a resident fieldserve.Service
// open-loop from one generator: reads are due at a fixed absolute rate and
// each is timed from its due time, so a stall also charges the requests
// queued behind it. churn adds Service.Update deltas on a fixed schedule.
// serve's unit of work is a read; churn's is an update, with the reads as
// the load beside it.
type svcConfig struct {
	n, halos    int           // catalog size and halo count
	mix         mix           // read mix
	rate        float64       // reads per second
	updateEvery time.Duration // 0: no updates
	churn       float64       // fraction of the catalog each update replaces
	readLimit   time.Duration // a slower read counts as a miss
	updateLimit time.Duration // a slower update counts as a miss
}

var readMix = mix{Grid: 64, HotSpecs: 8, Families: 4, WindowFrac: 0.15, FreshFrac: 0.05}

// Each service takes about half its capacity. Capacity is the offered
// rate at which the one worker would be busy all the time: a linear fit of
// its sampled busy fraction (Stats.Active, every 5 ms) over offered rates,
// extrapolated to 1. On the 2-core host it is 487 reads/s for serve and
// 260 reads/s for churn, where each update leaves dirty columns the hot
// reads must re-march, which keeps the worker busy 37% of the time before
// the first read. An update every 250 ms is about five times the Update
// call's median of 50-60 ms, so updates never queue behind one another,
// and a 15 s window holds 60 of them.
var serveConfig = svcConfig{
	n: 50_000, halos: 200, mix: readMix, rate: 250,
	readLimit: time.Second,
}

var churnConfig = svcConfig{
	n: 10_000, halos: 100, mix: readMix, rate: 130,
	updateEvery: 250 * time.Millisecond, churn: 0.01,
	readLimit: time.Second, updateLimit: 2 * time.Second,
}

// requestTimeout bounds every call so no operation can hang a run; a call
// that hits it is an expiry and counts as a miss.
const requestTimeout = 10 * time.Second

const catName = "catalog"

func serviceOptions() fieldserve.Options {
	// One serving worker marching with one goroutine, so the generator and
	// the cache hits served inline on the callers' goroutines keep the
	// second core; the queue is deep enough that the offered rate never
	// degrades or sheds.
	return fieldserve.Options{Workers: 1, QueueDepth: 256}
}

// warm serves the hot set and each family's full window once, so the
// measured window starts with both caches holding them.
func warm(svc *fieldserve.Service, m mix) error {
	specs := make([]render.Spec, 0, m.HotSpecs+m.Families)
	for i := 0; i < m.HotSpecs; i++ {
		specs = append(specs, m.hotSpec(i))
	}
	for f := 0; f < m.Families; f++ {
		specs = append(specs, m.familySpec(f))
	}
	for _, s := range specs {
		if _, err := svc.Serve(context.Background(), fieldserve.Request{Catalog: catName, Spec: s}); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// window is one open-loop measurement over reads and updates.
type window struct {
	reads     []read
	deltas    []delaunay.Delta
	updDue    []time.Duration
	resp      []*fieldserve.Response
	errs      []error
	lat       []time.Duration // read latency from due time
	late      []time.Duration // generator lateness per read
	serveD    []time.Duration // Serve call duration per read
	dispatch  []time.Duration // from send to the read goroutine calling Serve
	updLat    []time.Duration // update latency from due time
	updCall   []time.Duration // Update call duration
	updSt     []*delaunay.DeltaStats
	updErr    []error
	replay    func(u int) // if set, run at replayDue[u] on a generator of its own
	replayDue []time.Duration
	cpu       time.Duration // process CPU over the window, less the generators' spins
	wall      time.Duration
}

// runWindow plays reads and updates against svc. Updates run in order on
// their own generator, since each delta indexes the catalog its
// predecessor left.
func runWindow(e *env, svc *fieldserve.Service, w *window, reqBase int64) {
	n, nu := len(w.reads), len(w.deltas)
	w.resp, w.errs = make([]*fieldserve.Response, n), make([]error, n)
	w.serveD, w.dispatch = make([]time.Duration, n), make([]time.Duration, n)
	w.updCall, w.updSt, w.updErr = make([]time.Duration, nu), make([]*delaunay.DeltaStats, nu), make([]error, nu)

	c0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	var uspin, pspin time.Duration
	if w.replay != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, pspin = drive(start, w.replayDue, false, func(u int, _, _ time.Time) { w.replay(u) })
		}()
	}
	if nu > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.updLat, _, uspin = drive(start, w.updDue, false, func(u int, due, sent time.Time) {
				req := -(reqBase + int64(u) + 1)
				e.tr.add("gen.late", 0, req, due, sent)
				ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
				defer cancel()
				id := e.tr.begin("fieldserve.Update", 0, req)
				t := time.Now()
				w.updSt[u], w.updErr[u] = svc.Update(ctx, catName, w.deltas[u])
				w.updCall[u] = time.Since(t)
				e.tr.end(id)
			})
		}()
	}
	dues := make([]time.Duration, n)
	for i, r := range w.reads {
		dues[i] = r.Due
	}
	var rspin time.Duration
	w.lat, w.late, rspin = drive(start, dues, true, func(i int, due, sent time.Time) {
		req := reqBase + int64(i) + 1
		e.tr.add("gen.late", 0, req, due, sent)
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		id := e.tr.begin("fieldserve.Serve", 0, req)
		t := time.Now()
		w.dispatch[i] = t.Sub(sent)
		w.resp[i], w.errs[i] = svc.Serve(ctx, fieldserve.Request{Catalog: catName, Spec: w.reads[i].Spec})
		w.serveD[i] = time.Since(t)
		e.tr.end(id)
	})
	wg.Wait()
	w.wall = time.Since(start)
	// The generators' spins are the benchmark's CPU, not the service's.
	w.cpu = cpuTime() - c0 - rspin - uspin - pspin
}

// serveRefs holds direct-render checksums for the specs a run checks.
type serveRefs struct {
	m    *render.Marcher
	sums map[render.Spec]uint64
}

func (r *serveRefs) sum(s render.Spec) (uint64, error) {
	if v, ok := r.sums[s]; ok {
		return v, nil
	}
	g, _, err := r.m.Render(s, 1, render.ScheduleDynamic)
	if err != nil {
		return 0, err
	}
	r.sums[s] = g.Checksum()
	return r.sums[s], nil
}

// checkWindow scores every operation of w into rep. A read is ok when it
// was served undegraded within the limit and its checksum matches its
// grid; reads of checked specs must also match the direct render. An
// update is ok when it succeeded within the limit.
func checkWindow(rep *report, c svcConfig, w *window, refs *serveRefs, checked map[render.Spec]bool) error {
	verified := map[*grid.Grid2D]bool{}
	bad := 0
	for i, r := range w.reads {
		resp, err := w.resp[i], w.errs[i]
		switch {
		case err != nil:
			bad++
			continue
		case resp.Degraded:
			bad++
			continue
		case w.lat[i] > c.readLimit:
			bad++
			continue
		}
		if !verified[resp.Grid] {
			if resp.Grid.Checksum() != resp.Checksum {
				rep.fail("read %d: response checksum does not match its grid", i)
				bad++
				continue
			}
			verified[resp.Grid] = true
		}
		if refs != nil && checked[r.Spec] {
			want, err := refs.sum(r.Spec)
			if err != nil {
				return fmt.Errorf("reference render: %w", err)
			}
			if resp.Checksum != want {
				rep.fail("read %d (%s): checksum differs from the direct render", i, r.Kind)
				bad++
			}
		}
	}
	for u, err := range w.updErr {
		switch {
		case err != nil:
			rep.fail("update %d failed: %v", u, err)
			bad++
		case w.updLat[u] > c.updateLimit:
			bad++
		}
	}
	rep.Attempted += len(w.reads) + len(w.deltas)
	rep.Failed += bad
	return nil
}

// describe notes per-kind read latencies, generator lateness and update
// latencies, each with its sample count, for the human-readable output.
func describe(rep *report, w *window) {
	by := map[reqKind][]float64{}
	for i, r := range w.reads {
		by[r.Kind] = append(by[r.Kind], ms(w.lat[i]))
	}
	all := []struct {
		name string
		xs   []float64
	}{{"hot", by[kindHot]}, {"window", by[kindWindow]}, {"fresh", by[kindFresh]}, {"lateness", durMs(w.late)}, {"update", durMs(w.updLat)}}
	for _, a := range all {
		if len(a.xs) == 0 {
			continue
		}
		line := fmt.Sprintf("%-8s n=%-6d p50=%.3fms", a.name, len(a.xs), median(a.xs))
		for _, p := range []float64{0.9, 0.99} {
			if v, ok := percentile(a.xs, p); ok {
				line += fmt.Sprintf(" p%d=%.3fms", int(p*100), v)
			}
		}
		rep.note("%s", line)
	}
}

// checkedSpecs picks the specs whose reads are compared with a direct
// render: the whole hot set plus a seeded sample of 64 window and fresh
// reads.
func checkedSpecs(reads []read, m mix, seed int64) map[render.Spec]bool {
	out := map[render.Spec]bool{}
	for i := 0; i < m.HotSpecs; i++ {
		out[m.hotSpec(i)] = true
	}
	var cold []render.Spec
	for _, r := range reads {
		if r.Kind != kindHot {
			cold = append(cold, r.Spec)
		}
	}
	for _, i := range sample(len(cold), 64, seed) {
		out[cold[i]] = true
	}
	return out
}

func runServe(e *env, c svcConfig) error {
	pts := catalog(c.n, c.halos, e.seed)
	nReads := int(c.rate * e.seconds.Seconds())
	reads := c.mix.schedule(nReads, time.Duration(float64(time.Second)/c.rate), e.seed)
	var deltas []delaunay.Delta
	var final []geom.Vec3
	var updDue []time.Duration
	if c.updateEvery > 0 {
		nu := int(e.seconds / c.updateEvery)
		deltas, final = bandDeltas(pts, nu, c.churn, e.seed)
		for u := range deltas {
			updDue = append(updDue, time.Duration(u)*c.updateEvery+c.updateEvery/2)
		}
	}

	// Set-up: Register, the cold mesh build, and the hot-set warm-up.
	var setups []float64
	var svc *fieldserve.Service
	for i := 0; i < setupRepeats; i++ {
		if svc != nil {
			svc.Close()
		}
		id := e.tr.begin("fieldserve.setup", 0, 0)
		t := time.Now()
		svc = fieldserve.New(serviceOptions())
		if err := svc.Register(catName, append([]geom.Vec3(nil), pts...)); err != nil {
			return err
		}
		if err := warm(svc, c.mix); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
		e.tr.end(id)
	}
	defer svc.Close()

	// The reference marcher for serve's checks, built from the same points.
	var lc layerCounts
	refM, err := buildMarcher(e, 0, 0, pts, &lc)
	if err != nil {
		return err
	}
	var refs *serveRefs
	var checked map[render.Spec]bool
	if c.updateEvery == 0 {
		refs = &serveRefs{m: refM, sums: map[render.Spec]uint64{}}
		checked = checkedSpecs(reads, c.mix, e.seed)
	}

	if e.tr != nil {
		return traceServe(e, c, svc, reads, deltas, updDue, refs, checked, refM, pts, final, &lc)
	}
	w := &window{reads: reads, deltas: deltas, updDue: updDue}
	runWindow(e, svc, w, 0)
	describe(e.rep, w)
	if err := checkWindow(e.rep, c, w, refs, checked); err != nil {
		return err
	}
	if c.updateEvery > 0 {
		if err := checkFinalEpoch(e.rep, svc, final, c.mix); err != nil {
			return err
		}
	}
	e.rep.set("setup_s", median(setups), len(setups))
	lat := w.lat
	if c.updateEvery > 0 {
		lat = w.updLat
	}
	e.rep.set("p50_ms", medianDur(lat), len(lat))
	e.rep.set("cpu_ms", ms(w.cpu)/float64(len(lat)), len(lat))
	return nil
}

// checkFinalEpoch renders a never-seen spec through the service after the
// last update and compares it bit-for-bit with a from-scratch build of the
// final point set.
func checkFinalEpoch(rep *report, svc *fieldserve.Service, final []geom.Vec3, m mix) error {
	spec := m.baseSpec()
	spec.Seed = 999
	resp, err := svc.Serve(context.Background(), fieldserve.Request{Catalog: catName, Spec: spec})
	if err != nil {
		rep.fail("final-epoch read: %v", err)
		return nil
	}
	fresh, err := buildMarcher(&env{}, 0, 0, final, &layerCounts{})
	if err != nil {
		return fmt.Errorf("final-epoch reference: %w", err)
	}
	g, _, err := fresh.Render(spec, 1, render.ScheduleDynamic)
	if err != nil {
		return err
	}
	if !sameBits(resp.Grid, g) {
		rep.fail("final-epoch render differs from a from-scratch build of the final point set")
	}
	return nil
}

// traceServe measures the first half of the schedule untraced and the
// second half traced, replaying each traced update beside the reads, then
// replays cold reads directly.
func traceServe(e *env, c svcConfig, svc *fieldserve.Service, reads []read, deltas []delaunay.Delta, updDue []time.Duration,
	refs *serveRefs, checked map[render.Spec]bool, refM *render.Marcher, pts, final []geom.Vec3, lc *layerCounts) error {
	rep := e.rep
	half := len(reads) / 2
	uhalf := len(deltas) / 2
	w1 := &window{reads: reads[:half], deltas: deltas[:uhalf], updDue: updDue[:uhalf]}
	w2 := &window{reads: shift(reads[half:]), deltas: deltas[uhalf:], updDue: shiftDur(updDue[uhalf:], reads[half].Due)}
	runWindow(&env{}, svc, w1, 0)
	var rp *updateReplay
	if len(deltas) > 0 {
		var err error
		if rp, err = newUpdateReplay(e, w2, pts, deltas[:uhalf], c.updateEvery/2); err != nil {
			return err
		}
	}
	s0 := svc.Stats()
	m0 := memStats()
	runWindow(e, svc, w2, int64(len(reads)+len(deltas)))
	if rp != nil {
		e.tr.end(rp.root)
		if rp.err != nil {
			return rp.err
		}
	}
	units := len(w2.reads)
	if len(deltas) > 0 {
		units = len(w2.deltas)
	}
	setGoStats(rep, m0, units)
	s1 := svc.Stats()
	for _, w := range []*window{w1, w2} {
		if err := checkWindow(rep, c, w, refs, checked); err != nil {
			return err
		}
	}
	if len(deltas) > 0 {
		if err := checkFinalEpoch(rep, svc, final, c.mix); err != nil {
			return err
		}
	}

	hits, miss := s1.CacheHits-s0.CacheHits, s1.CacheMiss-s0.CacheMiss
	rep.set("fieldserve.hit_frac", frac(hits, hits+miss), int(hits+miss))
	ch, cm := s1.ColHits-s0.ColHits, s1.ColMisses-s0.ColMisses
	rep.set("fieldserve.col_hit_frac", frac(ch, ch+cm), int(ch+cm))
	if b := s1.Batches - s0.Batches; b > 0 {
		rep.set("fieldserve.batch_size", float64(s1.BatchedReqs-s0.BatchedReqs)/float64(b), int(b))
	}
	rep.set("fieldserve.cold_columns", float64(s1.ColdColumns-s0.ColdColumns), units)
	rep.set("fieldserve.shed", float64(s1.Shed-s0.Shed), units)
	rep.set("fieldserve.degraded", float64(s1.Degraded-s0.Degraded), units)
	rep.set("fieldserve.expired", float64(s1.Expired-s0.Expired), units)
	rep.set("fieldserve.dirty_columns", float64(s1.DirtyColumns-s0.DirtyColumns), units)
	rep.set("fieldserve.evicted_by_update", float64(s1.EvictedByUpdate-s0.EvictedByUpdate), units)
	lateMs := durMs(w2.late)
	if v, ok := percentile(lateMs, 0.99); ok {
		rep.set("gen.late_p99_ms", v, len(lateMs))
	}

	// Cold reads replayed as direct marches on the reference mesh: the
	// march's own cost, and what Serve adds on top of it.
	var mc layerCounts
	var serveMs, waitMs []float64
	root := e.tr.begin("serve.replay", 0, -1)
	for i, r := range w2.reads {
		if r.Kind != kindFresh || w2.errs[i] != nil || len(serveMs) == 32 {
			continue
		}
		_, st, err := marchOnce(e, root, -1, refM, r.Spec)
		if err != nil {
			return err
		}
		mc.addStats(st)
		serveMs = append(serveMs, ms(w2.serveD[i]))
		waitMs = append(waitMs, ms(w2.late[i]+w2.dispatch[i]))
	}
	e.tr.end(root)
	spans := e.tr.snapshot()
	setLayers(rep, selfTimes(spans, 0), total, lc, 1)
	marchMs := durMs(selfTimes(spans, root)["render.march"])
	if n := len(marchMs); n > 0 {
		rep.set("render.march_ms", median(marchMs), n)
		rep.set("render.steps", float64(mc.steps)/float64(n), n)
		rep.set("render.clean_frac", float64(mc.clean)/float64(mc.cols), int(mc.cols))
		rep.set("fieldserve.serve_overhead_ms", median(serveMs)-median(marchMs), n)
	}

	if len(deltas) == 0 {
		// serve reconciles its cold path. A fresh read's latency is the
		// generator's lateness, the read goroutine's start and one march
		// of its spec; what that leaves out is fieldserve's queueing
		// behind other cold work, batching and cache fill. Cache hits
		// have no layer below Serve to attribute.
		var fresh []float64
		for i, r := range w1.reads {
			if r.Kind == kindFresh {
				fresh = append(fresh, ms(w1.lat[i]))
			}
		}
		if len(marchMs) == 0 || len(fresh) == 0 {
			return fmt.Errorf("no fresh reads to reconcile")
		}
		untraced := median(fresh)
		rep.note("serve fresh reads (medians): lateness+dispatch %.3f + replayed march %.3f ms; untraced fresh latency %.3f ms (n=%d)",
			median(waitMs), median(marchMs), untraced, len(fresh))
		setReconcile(rep, (median(waitMs)+median(marchMs))/untraced, len(marchMs))
		all := medianDur(w1.lat)
		rep.set("trace.overhead_frac", (medianDur(w2.lat)-all)/all, len(w2.reads))
		return nil
	}
	return traceUpdates(e, w1, w2, rp.root)
}

// updateReplay replays churn's traced deltas through ApplyDelta,
// dtfe.NewField and render.NewMarcher on a mesh of its own, each a set
// lead before its Update is due. The replay so runs beside the same read
// load as the call it explains, and has ended before the call starts.
// Its spans are children of root.
type updateReplay struct {
	root int64
	tri  *delaunay.Triangulation
	err  error
}

// newUpdateReplay builds the mesh the first half of the deltas left and
// schedules w's deltas on it.
func newUpdateReplay(e *env, w *window, pts []geom.Vec3, before []delaunay.Delta, lead time.Duration) (*updateReplay, error) {
	cur := pts
	for _, d := range before {
		cur = applyText(cur, d)
	}
	tri, err := delaunay.New(cur)
	if err != nil {
		return nil, err
	}
	r := &updateReplay{root: e.tr.begin("churn.replay", 0, -1), tri: tri}
	w.replayDue = make([]time.Duration, len(w.updDue))
	for u, d := range w.updDue {
		w.replayDue[u] = max(d-lead, 0)
	}
	w.replay = func(u int) {
		if r.err == nil {
			r.tri, r.err = replayDelta(e, r.root, r.tri, w.deltas[u], u)
		}
	}
	return r, nil
}

func replayDelta(e *env, root int64, tri *delaunay.Triangulation, d delaunay.Delta, u int) (*delaunay.Triangulation, error) {
	id := e.tr.begin("delaunay.delta", root, -1)
	next, _, err := tri.ApplyDelta(d)
	e.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("replayed delta %d: %w", u, err)
	}
	id = e.tr.begin("dtfe.field", root, -1)
	f, err := dtfe.NewField(next, nil)
	e.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = e.tr.begin("render.pack", root, -1)
	render.NewMarcher(f)
	e.tr.end(id)
	return next, nil
}

// traceUpdates sets churn's update layers from the replay under root.
func traceUpdates(e *env, w1, w2 *window, root int64) error {
	rep := e.rep
	var callMs []float64
	var rebuilds, created int
	for u := range w2.deltas {
		if w2.updErr[u] != nil {
			continue
		}
		rebuilds += w2.updSt[u].Rebuilds
		created += w2.updSt[u].CreatedTets
		callMs = append(callMs, ms(w2.updCall[u]))
	}
	self := selfTimes(e.tr.snapshot(), root)
	deltaMs, fieldMs, packMs := durMs(self["delaunay.delta"]), durMs(self["dtfe.field"]), durMs(self["render.pack"])
	replayMs := make([]float64, len(deltaMs))
	for u := range replayMs {
		replayMs[u] = deltaMs[u] + fieldMs[u] + packMs[u]
	}
	n := len(deltaMs)
	rep.set("delaunay.delta_ms", median(deltaMs), n)
	rep.set("delaunay.delta_rebuilds", float64(rebuilds), n)
	rep.set("delaunay.delta_created_tets", float64(created), n)
	rep.set("dtfe.field_ms", median(fieldMs), n)
	rep.set("render.pack_ms", median(packMs), n)
	rep.set("fieldserve.update_overhead_ms", median(callMs)-median(replayMs), n)

	// An update's latency is generator lateness plus the Update call. The
	// replay times the call's delta, density and pack beside the same read
	// load; what it leaves unexplained is fieldserve's own publish and
	// cache sweeps (update_overhead_ms).
	var late []time.Duration
	for u := range w2.deltas {
		late = append(late, w2.updLat[u]-w2.updCall[u])
	}
	untraced := medianDur(w1.updLat)
	setReconcile(rep, (medianDur(late)+median(replayMs))/untraced, n)
	rep.set("trace.overhead_frac", (medianDur(w2.updLat)-untraced)/untraced, n)
	rep.note("churn update: replayed delta %.2f + field %.2f + pack %.2f ms of an Update call of %.2f ms (medians)",
		median(deltaMs), median(fieldMs), median(packMs), median(callMs))
	return nil
}

// shift rebases a tail of the schedule to start at zero.
func shift(rs []read) []read {
	out := append([]read(nil), rs...)
	if len(out) > 0 {
		base := out[0].Due
		for i := range out {
			out[i].Due -= base
		}
	}
	return out
}

// shiftDur rebases update times by the same base as the reads they run
// beside, so each half keeps the updates' phase against the reads.
func shiftDur(ds []time.Duration, base time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for i, d := range ds {
		out[i] = max(d-base, 0)
	}
	return out
}
