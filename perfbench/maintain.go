package main

import (
	"fmt"
	"math/rand"
	"path/filepath"

	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/storage"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// runMaintain is the paper's detached scenario: three views over the same
// retail star, sources detached, DefaultMix deltas applied in memory by
// one caller. Scoped recompute, the delta-detail join and the cross-view
// memo do nearly all the work; wire, wal and pager do none.
func runMaintain(cfg config) (*report, error) {
	p := workload.ScaledDown(100_000)
	p.Seed = cfg.seed
	src, err := newRetailSource(p)
	if err != nil {
		return nil, err
	}
	views := []viewDef{
		{"product_sales", workload.ProductSalesSQL(p.SelectYear)},
		{"month_sales", workload.CSMASOnlySQL(p.SelectYear)},
		{"product_totals", workload.EliminationSQL()},
	}
	rep := newReport()
	var w *warehouse.Warehouse
	if err := repeatSetup(rep, func(int) (st setupTimes, err error) {
		w, st, err = buildDetached(src, views, nil)
		return st, err
	}); err != nil {
		return nil, err
	}

	mut := workload.NewMutator(src, p)
	r := &inproc{cfg: cfg, w: w, views: names(views), rep: rep,
		gen: func(n int) ([]maintain.Delta, error) { return mut.Batch(n, workload.DefaultMix()) }}
	if cfg.trace {
		r.t = newTracer()
	}
	return rep, r.finishRun(src, nil)
}

// Out-of-core geometry, as in the committed OutOfCoreMaintain cell: small
// pages and a pool just above the skewed stream's hot set, which leaves
// the sale detail well over ten times the pool.
const (
	pageSize  = 1024
	poolPages = 128
	minSpill  = 10.0
	hotRows   = 64 // the stream's hot set: the first sales, all on day 1
	hotShare  = 95 // percent of updates that hit the hot set
)

// runOutOfCore is the maintain layer reaching its rows through the pager:
// a per-day COUNT(DISTINCT) view whose aux stores live on page files, fed
// a skewed stream of single-row price updates by one caller.
func runOutOfCore(cfg config) (*report, error) {
	p := workload.RetailParams{Days: 730, Stores: 2, Products: 1000, ProductsSoldPerDay: 50,
		TransactionsPerProduct: 1, Brands: 50, SelectYear: 1997, Seed: cfg.seed}
	src, err := newRetailSource(p)
	if err != nil {
		return nil, err
	}
	views := []viewDef{{"day_sales", fmt.Sprintf(`SELECT time.id, SUM(price) AS TotalPrice,
	COUNT(*) AS TotalCount, COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = %d AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.id`, p.SelectYear)}}

	rep := newReport()
	var tr *tracer
	storeSt := &ioStats{}
	if cfg.trace {
		tr = newTracer()
	}
	var fac *pager.Factory
	opened := 0
	install := func(w *warehouse.Warehouse) error {
		opened++
		f, err := pager.NewFactory(filepath.Join(cfg.dir, fmt.Sprintf("pages-%d", opened)),
			pager.Options{PageSize: pageSize, PoolPages: poolPages})
		if err != nil {
			return err
		}
		fac = f
		return w.SetAuxStoreFactory(storeFactory(f, tr, storeSt))
	}
	var w *warehouse.Warehouse
	if err := repeatSetup(rep, func(int) (st setupTimes, err error) {
		if w != nil {
			if err := closePaged(w, fac); err != nil {
				return st, err
			}
		}
		w, st, err = buildDetached(src, views, install)
		return st, err
	}); err != nil {
		return nil, err
	}
	defer closePaged(w, fac)

	sale := saleStore(fac)
	if sale == nil {
		return nil, fmt.Errorf("outofcore: no paged store for the sale detail")
	}
	spill := float64(sale.FilePages) / float64(sale.Budget)
	if spill < minSpill {
		return nil, fmt.Errorf("outofcore: sale store spans %d pages against a %d-frame pool (%.1fx); the workload needs ≥%.0fx",
			sale.FilePages, sale.Budget, spill, minSpill)
	}
	rep.metrics["pager.spill_ratio"] = spill
	before := poolTotals(fac)

	gen := newSkewStream(src, p, cfg.seed)
	r := &inproc{cfg: cfg, w: w, views: names(views), rep: rep, gen: gen.batch, t: tr}
	if cfg.trace {
		r.store = storeSt
	}
	reopen := func(rw *warehouse.Warehouse) error {
		opened++
		f, err := pager.NewFactory(filepath.Join(cfg.dir, fmt.Sprintf("pages-%d", opened)),
			pager.Options{PageSize: pageSize, PoolPages: poolPages})
		if err != nil {
			return err
		}
		return rw.SetAuxStoreFactory(storeFactory(f, nil, nil))
	}
	runErr := r.finishRun(src, reopen)
	after := poolTotals(fac)
	deltas := float64(r.deltas)
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	rep.metrics["pager.hit_ratio"] = ratio(hits, hits+misses)
	rep.metrics["pager.misses_per_delta"] = misses / deltas
	rep.metrics["pager.evictions_per_delta"] = float64(after.Evictions-before.Evictions) / deltas
	rep.metrics["pager.flushes_per_delta"] = float64(after.Flushes-before.Flushes) / deltas
	return rep, runErr
}

// finishRun runs the apply loop, records the metrics, writes the spans,
// and checks the outputs: every view against a from-scratch evaluation
// over the generator's final source state, and the state restored from a
// snapshot against the live one.
func (r *inproc) finishRun(src *storage.DB, reopen func(*warehouse.Warehouse) error) error {
	if err := r.loop(); err != nil {
		return err
	}
	r.finish()
	if r.t != nil {
		if err := r.t.write(spanPath(r.cfg)); err != nil {
			return err
		}
	}
	if err := checkViews(r.w, r.views, src); err != nil {
		r.rep.checkErr = err
	}
	r.rep.metrics["aux_bytes_per_fact_byte"] = auxPerFact(r.w, src.Table("sale").Bytes())
	r.gen, r.applyLat, r.queryLat = nil, nil, nil
	r.rep.metrics["heap_live_mb"] = heapLiveMB()
	return recoverSnapshot(r.rep, r.w, reopen)
}

// storeFactory opens aux stores on f, wrapped for tracing when tr is set.
func storeFactory(f *pager.Factory, tr *tracer, st *ioStats) func(view, table string) (maintain.AuxStore, error) {
	return func(view, table string) (maintain.AuxStore, error) {
		s, err := f.Open(view, table)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			return s, nil
		}
		return &tracedStore{s: s, view: view, t: tr, st: st}, nil
	}
}

func closePaged(w *warehouse.Warehouse, f *pager.Factory) error {
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}

func saleStore(f *pager.Factory) *pager.StoreStats {
	for _, st := range f.Stats() {
		if st.Table == "sale" {
			return &st
		}
	}
	return nil
}

func poolTotals(f *pager.Factory) pager.StoreStats {
	var t pager.StoreStats
	for _, st := range f.Stats() {
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
		t.Flushes += st.Flushes
	}
	return t
}

func names(vs []viewDef) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}

// skewStream generates single-row sale price updates against src:
// hotShare percent hit the hotRows first sales (one day-group), the rest
// are uniform over the selected year's sales.
type skewStream struct {
	src      *storage.DB
	rng      *rand.Rand
	yearRows int64
}

func newSkewStream(src *storage.DB, p workload.RetailParams, seed int64) *skewStream {
	perDay := int64(p.Stores * p.ProductsSoldPerDay * p.TransactionsPerProduct)
	return &skewStream{src: src, rng: rand.New(rand.NewSource(seed)), yearRows: int64(p.Days/2) * perDay}
}

func (s *skewStream) batch(n int) ([]maintain.Delta, error) {
	out := make([]maintain.Delta, 0, n)
	for i := 0; i < n; i++ {
		id := 1 + s.rng.Int63n(s.yearRows)
		if s.rng.Intn(100) < hotShare {
			id = 1 + s.rng.Int63n(hotRows)
		}
		price := types.Float(float64(s.rng.Intn(5000))/100 + 0.5)
		old, upd, err := s.src.Update("sale", types.Int(id), map[string]types.Value{"price": price})
		if err != nil {
			return nil, err
		}
		out = append(out, maintain.Delta{Table: "sale", Updates: []maintain.Update{{Old: old, New: upd}}})
	}
	return out, nil
}
