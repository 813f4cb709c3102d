package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"mindetail/internal/maintain"
	"mindetail/internal/obs"
	"mindetail/internal/persist"
	"mindetail/internal/ra"
	"mindetail/internal/storage"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// A run builds its warehouse from empty at least setupReps times and for
// at least minSetup in all; setup_s is the median, and the last warehouse
// built is the one measured. The in-memory workloads restore their
// snapshot at least recoverReps times and for at least minRecover in all;
// recover_s is the median. A restore takes tens of milliseconds, so many
// of them spread over seconds keep a short burst of load on the host from
// moving the median.
const (
	setupReps   = 5
	minSetup    = time.Second
	recoverReps = 31
	minRecover  = 3 * time.Second
)

// chunk is how many deltas are generated ahead of one timed stretch of
// the apply loop. Generation runs between stretches, off the clock, so
// every generated delta is applied and the generator's source ends in
// exactly the state the warehouse's views describe.
const chunk = 64

// mode is how one stretch of a traced run is measured.
type mode int

const (
	untraced mode = iota // the program as shipped
	obsOff               // Warehouse.SetObs(false)
	traced               // seams wrapped, spans recorded
)

// viewDef is a materialized view the workload creates.
type viewDef struct{ name, sql string }

// newRetailSource returns a storage DB holding the retail star generated
// from p: the generator's copy of the sources, which the workload's delta
// generator mutates and the correctness check evaluates the views over.
func newRetailSource(p workload.RetailParams) (*storage.DB, error) {
	w := warehouse.New()
	if _, err := w.Exec(workload.DDL()); err != nil {
		return nil, err
	}
	if err := workload.Load(w.Source(), p); err != nil {
		return nil, err
	}
	return w.Source(), nil
}

// retailTables lists the retail star's tables in foreign-key order.
var retailTables = []string{"time", "product", "store", "sale"}

// setupTimes splits one set-up into its parts.
type setupTimes struct{ total, load, createView time.Duration }

// buildDetached builds an in-memory warehouse from empty: the schema, a
// copy of src's rows, the views (derivation and backfill), then detaches
// the sources. install, when set, runs between the schema and the load
// (the out-of-core workload installs its page-file factory there).
func buildDetached(src *storage.DB, views []viewDef, install func(*warehouse.Warehouse) error) (*warehouse.Warehouse, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	w := warehouse.New()
	if _, err := w.Exec(workload.DDL()); err != nil {
		return nil, st, err
	}
	if install != nil {
		if err := install(w); err != nil {
			return nil, st, err
		}
	}
	loadStart := time.Now()
	for _, t := range retailTables {
		var err error
		src.Table(t).Scan(func(row tuple.Tuple) {
			if err == nil {
				err = w.Source().Insert(t, row.Clone())
			}
		})
		if err != nil {
			return nil, st, fmt.Errorf("loading %s: %w", t, err)
		}
	}
	st.load = time.Since(loadStart)
	viewStart := time.Now()
	for _, v := range views {
		if _, err := w.Exec("CREATE MATERIALIZED VIEW " + v.name + " AS " + v.sql); err != nil {
			return nil, st, fmt.Errorf("creating view %s: %w", v.name, err)
		}
	}
	st.createView = time.Since(viewStart)
	w.DetachSources()
	st.total = time.Since(start)
	return w, st, nil
}

// repeatSetup calls build (with the attempt's index) until it has built
// setupReps warehouses over at least minSetup, and records the medians.
func repeatSetup(rep *report, build func(i int) (setupTimes, error)) error {
	var total, load, create []float64
	var spent time.Duration
	for i := 0; i < setupReps || spent < minSetup; i++ {
		t, err := build(i)
		if err != nil {
			return err
		}
		spent += t.total
		total = append(total, t.total.Seconds())
		load = append(load, t.load.Seconds())
		create = append(create, t.createView.Seconds())
	}
	rep.metrics["setup_s"] = median(total)
	rep.metrics["setup.load_s"] = median(load)
	rep.metrics["setup.create_view_s"] = median(create)
	return nil
}

// inproc drives the single-caller workloads: one goroutine applies the
// generated deltas with Warehouse.ApplyDelta and, after each, reads the
// next view with Warehouse.Query — a read of the state it just wrote.
type inproc struct {
	cfg   config
	w     *warehouse.Warehouse
	views []string
	gen   func(n int) ([]maintain.Delta, error)
	t     *tracer  // nil when untraced
	store *ioStats // traced aux-store calls (out-of-core only)
	rep   *report

	deltas, queries   int64
	elapsed           time.Duration
	applyLat          durations    // untraced stretches only
	queryLat          durations    // untraced stretches only
	stretchP50        [3][]float64 // apply p50 of each stretch, by mode
	modeLat           [3]durations // apply latencies, by mode
	statsStart        maintain.Stats
	metStart, metEnd  obs.Snapshot
	ring              *obs.TraceRing
	ringSeen          uint64
	tracedDeltas      int64
	rootNs, whSelfNs  int64
	maintainNs        int64
	pagerNs, walNs    int64
	applySelf         durations
	allocs, allocByte uint64
}

// loop runs the apply loop for the run's measured time. A traced run
// rotates stretches through the three modes, ending on a whole rotation.
func (r *inproc) loop() error {
	modes := []mode{untraced}
	if r.cfg.trace {
		modes = []mode{untraced, obsOff, traced}
	}
	r.ring = r.w.ObsRegistry().Trace("maintain.applies")
	r.statsStart = engineStats(r.w, r.views)
	r.metStart = r.w.MetricsSnapshot()
	cpuStart := readCPU()
	for n := 0; r.elapsed < r.cfg.budget(1) || n%len(modes) != 0; n++ {
		ds, err := r.gen(chunk)
		if err != nil {
			return fmt.Errorf("generating deltas: %w", err)
		}
		m := modes[n%len(modes)]
		r.w.SetObs(m != obsOff)
		if r.t != nil {
			r.t.on.Store(m == traced)
		}
		lat := make(durations, 0, len(ds))
		start := time.Now()
		for _, d := range ds {
			var a time.Duration
			if m == traced {
				a, err = r.tracedApply(d)
			} else {
				a0 := time.Now()
				err = r.w.ApplyDelta(d)
				a = time.Since(a0)
			}
			if err != nil {
				return fmt.Errorf("delta %d: %w", r.deltas, err)
			}
			lat = append(lat, a)
			r.deltas++
			q0 := time.Now()
			rel, err := r.w.Query(r.views[r.queries%int64(len(r.views))])
			q := time.Since(q0)
			if err != nil || rel == nil {
				return fmt.Errorf("query after delta %d: %v", r.deltas, err)
			}
			r.queries++
			if m == untraced {
				r.queryLat = append(r.queryLat, q)
			}
		}
		r.elapsed += time.Since(start)
		if m == untraced {
			r.applyLat = append(r.applyLat, lat...)
		}
		r.stretchP50[m] = append(r.stretchP50[m], us(lat.quantile(0.5)))
		r.modeLat[m] = append(r.modeLat[m], lat...)
	}
	r.w.SetObs(true)
	if r.t != nil {
		r.t.on.Store(false)
	}
	cpuEnd := readCPU()
	r.metEnd = r.w.MetricsSnapshot()
	r.rep.metrics["go.gc_cpu_frac"] = ratio(cpuEnd.gc-cpuStart.gc, cpuEnd.total-cpuStart.total)
	r.rep.attempted += r.deltas + r.queries
	return nil
}

// tracedApply applies d under a root span, turns the engines' trace
// events for it into per-view maintenance spans, nests the aux-store
// spans under them, and accounts each layer's self time.
func (r *inproc) tracedApply(d maintain.Delta) (time.Duration, error) {
	m0 := readAllocs()
	r.ringSeen = r.ring.Len()
	rootID := r.t.openRoot()
	a0 := time.Now()
	err := r.w.ApplyDelta(d)
	a1 := time.Now()
	m1 := readAllocs()
	root := span{ID: rootID, Corr: rootID, Name: "warehouse.apply_delta", Start: int64(a0.Sub(r.t.epoch)), End: int64(a1.Sub(r.t.epoch))}
	kids := r.t.closeRoot(root)
	if err != nil {
		return 0, err
	}
	r.allocs += m1.objects - m0.objects
	r.allocByte += m1.bytes - m0.bytes
	r.tracedDeltas++

	// One maintenance span per view engine that staged the delta: the
	// engine's trace event carries its end time and duration.
	var mspans []span
	if n := r.ring.Len() - r.ringSeen; n > 0 {
		for _, ev := range r.ring.Recent(int(n)) {
			end := int64(ev.At.Sub(r.t.epoch))
			mspans = append(mspans, span{ID: r.t.ids.Add(1), Parent: rootID, Corr: rootID,
				Name: "maintain.apply", Tag: ev.Name, Start: end - ev.TotalNs, End: end})
		}
	}
	var direct, walSpans, pagerSpans []span
	direct = append(direct, mspans...)
	byView := map[string][]span{}
	for _, k := range kids {
		switch {
		case strings.HasPrefix(k.Name, "wal."):
			r.walNs += k.dur()
			walSpans = append(walSpans, k)
			direct = append(direct, k)
		case strings.HasPrefix(k.Name, "pager."):
			r.pagerNs += k.dur()
			pagerSpans = append(pagerSpans, k)
			nested := false
			for i := range mspans {
				if m := mspans[i]; m.Tag == k.Tag && k.Start >= m.Start && k.End <= m.End {
					byView[m.Tag] = append(byView[m.Tag], k)
					nested = true
					break
				}
			}
			if !nested {
				direct = append(direct, k)
			}
		}
	}
	for _, m := range mspans {
		r.maintainNs += m.dur() - union(byView[m.Tag])
	}
	r.rootNs += root.dur()
	r.whSelfNs += root.dur() - union(direct)
	r.applySelf = append(r.applySelf, time.Duration(root.dur()-union(append(walSpans, pagerSpans...))))
	r.t.mu.Lock()
	for _, m := range mspans {
		r.t.keep(m)
	}
	r.t.mu.Unlock()
	return a1.Sub(a0), nil
}

// finish records the run's metrics once the loop is done.
func (r *inproc) finish() {
	m := r.rep.metrics
	m["query_p50_us"] = us(r.queryLat.quantile(0.50))
	m["latency.query_p90_us"] = us(r.queryLat.quantile(0.90))
	m["latency.query_p99_us"] = us(r.queryLat.quantile(0.99))
	m["latency.apply_p50_us"] = us(r.applyLat.quantile(0.50))
	m["latency.apply_p90_us"] = us(r.applyLat.quantile(0.90))
	m["latency.apply_p99_us"] = us(r.applyLat.quantile(0.99))
	secs := r.elapsed.Seconds()
	m["deltas_per_s"] = float64(r.deltas) / secs
	m["max_rate_rps"] = float64(r.deltas+r.queries) / secs

	deltas := float64(r.deltas)
	st := engineStats(r.w, r.views)
	m["maintain.aux_lookups_per_delta"] = float64(st.AuxLookups-r.statsStart.AuxLookups) / deltas
	m["maintain.detail_rows_per_delta"] = float64(st.DetailRows-r.statsStart.DetailRows) / deltas
	m["maintain.recomputes_per_delta"] = float64(st.GroupRecomputes-r.statsStart.GroupRecomputes) / deltas
	warehouseMetrics(m, r.metStart, r.metEnd, r.deltas)

	if r.cfg.trace {
		td := float64(r.tracedDeltas)
		m["maintain.allocs_per_delta"] = float64(r.allocs) / td
		m["maintain.alloc_kb_per_delta"] = float64(r.allocByte) / 1024 / td
		m["warehouse.apply_self_us"] = us(r.applySelf.quantile(0.5))
		m["trace.accounted_frac"] = ratio(float64(r.whSelfNs+r.maintainNs+r.pagerNs+r.walNs), float64(r.rootNs))
		m["trace.spans"] = float64(r.t.spans())
		if r.store != nil {
			m["pager.store_calls_per_delta"] = float64(r.store.calls.Load()) / td
			m["pager.store_us_per_delta"] = float64(r.store.ns.Load()) / 1e3 / td
		}
		m["trace.overhead_frac"] = ratio(us(r.modeLat[traced].quantile(0.5)), us(r.modeLat[untraced].quantile(0.5))) - 1
		m["obs.overhead_frac"] = ratio(us(r.modeLat[untraced].quantile(0.5)), us(r.modeLat[obsOff].quantile(0.5))) - 1
		q := overhead(r.stretchP50[untraced], r.stretchP50[obsOff])
		m["obs.overhead_iqr_frac"] = q[2] - q[0]
	}
}

// overhead pairs the i-th stretches of two modes and returns the
// quartiles of a[i]/b[i] - 1.
func overhead(a, b []float64) [3]float64 {
	var fr []float64
	for i := range a {
		if i < len(b) && b[i] > 0 {
			fr = append(fr, a[i]/b[i]-1)
		}
	}
	return quartiles(fr)
}

// warehouseMetrics records the warehouse layer's counters over a run.
func warehouseMetrics(m map[string]float64, a, b obs.Snapshot, deltas int64) {
	c := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	m["warehouse.deltas_per_propagate"] = ratio(float64(deltas), c("warehouse.propagates"))
	hits := c("warehouse.query.snapshot_hits")
	m["warehouse.snapshot_hit_ratio"] = ratio(hits, hits+c("warehouse.query.snapshot_rebuilds")+c("warehouse.query.locked"))
	m["warehouse.propagate_p50_us"] = float64(b.Histograms["warehouse.propagate.ns"].P50) / 1e3
	for _, s := range []string{"expand", "filter", "delta_detail_join", "scoped_recompute", "commit"} {
		m["maintain.stage."+s+"_p50_us"] = float64(b.Histograms["maintain.stage."+s+"_ns"].P50) / 1e3
	}
	memoHits := c("maintain.memo.hits")
	m["maintain.memo_hit_ratio"] = ratio(memoHits, memoHits+c("maintain.memo.misses"))
}

// engineStats sums the views' exact maintenance counters.
func engineStats(w *warehouse.Warehouse, views []string) maintain.Stats {
	var s maintain.Stats
	for _, v := range views {
		st := w.View(v).Engine.Stats()
		s.DeltasApplied += st.DeltasApplied
		s.DetailRows += st.DetailRows
		s.AuxLookups += st.AuxLookups
		s.GroupAdjusts += st.GroupAdjusts
		s.GroupRecomputes += st.GroupRecomputes
	}
	return s
}

// allocCount is the runtime's cumulative heap allocation count.
type allocCount struct{ objects, bytes uint64 }

// readAllocs reads the allocation counters without stopping the world
// (runtime.ReadMemStats would, and would flush every P's cache, slowing
// the call that follows). Counts still cached per P land in a later
// reading, so per-delta figures are exact only summed over many deltas.
func readAllocs() allocCount {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var c allocCount
	for i, x := range s {
		if x.Value.Kind() != metrics.KindUint64 {
			continue
		}
		if i < 2 {
			c.objects += x.Value.Uint64()
		} else {
			c.bytes = x.Value.Uint64()
		}
	}
	return c
}

// cpuTimes reads the runtime's CPU-time estimates.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuTimes
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// checkViews compares every view's Query result with a from-scratch
// evaluation of its definition over src.
func checkViews(w *warehouse.Warehouse, views []string, src *storage.DB) error {
	for _, v := range views {
		got, err := w.Query(v)
		if err != nil {
			return err
		}
		want, err := w.View(v).Def.Evaluate(src)
		if err != nil {
			return fmt.Errorf("evaluating %s from scratch: %w", v, err)
		}
		if err := sameRelation(got, want); err != nil {
			return fmt.Errorf("view %s: %w", v, err)
		}
	}
	return nil
}

// sameRelation reports whether two relations hold the same rows. Float
// fields may differ by a relative 1e-9: a maintained SUM adds its terms in
// another order than a fresh evaluation does.
func sameRelation(got, want *ra.Relation) error {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("%d columns, want %d", len(got.Cols), len(want.Cols))
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	exact := func(row tuple.Tuple) string {
		var b strings.Builder
		for _, v := range row {
			if v.Kind() != types.KindFloat {
				b.WriteString(v.String())
			}
			b.WriteByte(0)
		}
		return b.String()
	}
	byKey := make(map[string][]tuple.Tuple, len(want.Rows))
	for _, row := range want.Rows {
		k := exact(row)
		byKey[k] = append(byKey[k], row)
	}
	for _, row := range got.Rows {
		k := exact(row)
		cands := byKey[k]
		found := -1
		for i, c := range cands {
			if floatsClose(row, c) {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("row %v has no match in the from-scratch result", row)
		}
		byKey[k] = append(cands[:found], cands[found+1:]...)
	}
	return nil
}

func floatsClose(a, b tuple.Tuple) bool {
	for i := range a {
		if a[i].Kind() != types.KindFloat {
			continue
		}
		if b[i].Kind() != types.KindFloat {
			return false
		}
		x, y := a[i].AsFloat(), b[i].AsFloat()
		if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// recoverSnapshot measures restoring a detached warehouse from its
// snapshot: persist.Load of the saved state, then reopen (when set) —
// the out-of-core workload moves the aux stores back onto page files.
// It checks that the restored warehouse saves to the same bytes.
func recoverSnapshot(rep *report, w *warehouse.Warehouse, reopen func(*warehouse.Warehouse) error) error {
	var live bytes.Buffer
	if err := persist.Save(w, &live, false); err != nil {
		return err
	}
	var times []float64
	var spent time.Duration
	for i := 0; i < recoverReps || spent < minRecover; i++ {
		runtime.GC() // every restore starts from the same collector state
		start := time.Now()
		rw, err := persist.Load(bytes.NewReader(live.Bytes()))
		if err != nil {
			return fmt.Errorf("restoring the snapshot: %w", err)
		}
		if reopen != nil {
			if err := reopen(rw); err != nil {
				return err
			}
		}
		took := time.Since(start)
		spent += took
		times = append(times, took.Seconds())
		if i == 0 {
			var again bytes.Buffer
			if err := persist.Save(rw, &again, false); err != nil {
				return err
			}
			if !bytes.Equal(live.Bytes(), again.Bytes()) && rep.checkErr == nil {
				rep.checkErr = fmt.Errorf("the restored warehouse differs from the live one")
			}
		}
		if err := rw.Close(); err != nil {
			return err
		}
	}
	rep.metrics["recover_s"] = median(times)
	return nil
}

// auxPerFact returns the aux-view bytes per byte of the fact table.
func auxPerFact(w *warehouse.Warehouse, factBytes int) float64 {
	aux := 0
	for _, r := range w.Report() {
		aux += r.AuxBytes
	}
	return ratio(float64(aux), float64(factBytes))
}
