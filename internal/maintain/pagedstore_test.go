// Rollback and index-integrity coverage for engines whose auxiliary views
// live on pager-backed stores. This file is an external test package because
// internal/pager (via internal/wal) imports maintain — the production
// dependency points the other way, through the AuxStore seam.
package maintain_test

import (
	"errors"
	"fmt"
	"testing"

	"mindetail/internal/experiments"
	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/workload"
)

// pagedParams is deliberately tiny relative to the 4-frame pool below: the
// sale detail spans dozens of pages, so every apply crosses the eviction
// boundary — rows journaled for undo get evicted and re-fetched mid-apply.
var pagedParams = workload.RetailParams{
	Days: 120, Stores: 1, Products: 20, ProductsSoldPerDay: 5,
	TransactionsPerProduct: 1, Brands: 5, SelectYear: 1997, Seed: 7,
}

const pagedViewSQL = `SELECT time.month, time.day, SUM(price) AS TotalPrice,
	COUNT(*) AS TotalCount, COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.month, time.day`

var pagedTables = []string{"sale", "time", "product", "store"}

// newPagedEngine builds the retail engine and moves its auxiliary views onto
// a pager factory with the smallest page size and pool the pager supports.
func newPagedEngine(t *testing.T) (*experiments.Env, *maintain.Engine) {
	t.Helper()
	env, err := experiments.NewEnv(pagedParams)
	if err != nil {
		t.Fatal(err)
	}
	return env, pagedEngineOn(t, env)
}

// pagedEngineOn builds the paged engine over an existing environment.
func pagedEngineOn(t *testing.T, env *experiments.Env) *maintain.Engine {
	t.Helper()
	eng, err := env.MinimalEngine(pagedViewSQL)
	if err != nil {
		t.Fatal(err)
	}
	fac, err := pager.NewFactory(t.TempDir(), pager.Options{PageSize: 256, PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fac.Close() })
	if err := eng.SetAuxStores(func(table string) (maintain.AuxStore, error) {
		return fac.Open("v", table)
	}); err != nil {
		t.Fatal(err)
	}
	for _, st := range fac.Stats() {
		if st.Table == "sale" && st.FilePages < 10*st.Budget {
			t.Fatalf("sale detail spans only %d pages against a %d-frame pool; the test needs heavy eviction",
				st.FilePages, st.Budget)
		}
	}
	return eng
}

// TestScopedAuxDetailMatchesFullPaged is the scoped-vs-full oracle of
// TestScopedAuxDetailMatchesFull over paged stores under constant
// eviction: the walk reads copy-out rows from the buffer pool instead of
// live map rows. Prices are reset to quarter multiples first, so every SUM
// is exact whichever order a path accumulates it in.
func TestScopedAuxDetailMatchesFullPaged(t *testing.T) {
	env, err := experiments.NewEnv(pagedParams)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range env.Src("sale").Rows {
		price := types.Float(float64(i%40)*0.25 + 0.5)
		if _, _, err := env.DB.Update("sale", row[0], map[string]types.Value{"price": price}); err != nil {
			t.Fatal(err)
		}
	}
	eng := pagedEngineOn(t, env)
	if err := maintain.ScopedMatchesFull(eng); err != nil {
		t.Fatal(err)
	}
	checkAux(t, eng, "after the oracle")
}

// capture deep-copies the engine's user-visible state.
func capture(e *maintain.Engine) (*ra.Relation, map[string]*ra.Relation) {
	clone := func(r *ra.Relation) *ra.Relation {
		out := &ra.Relation{Cols: append(ra.Schema(nil), r.Cols...)}
		out.Rows = make([]tuple.Tuple, len(r.Rows))
		for i, row := range r.Rows {
			out.Rows[i] = row.Clone()
		}
		return out
	}
	aux := make(map[string]*ra.Relation)
	for _, tb := range pagedTables {
		if at := e.Aux(tb); at != nil {
			aux[tb] = clone(at.Relation())
		}
	}
	return clone(e.Snapshot()), aux
}

// checkAux asserts every auxiliary index is coherent with its paged rows.
func checkAux(t *testing.T, e *maintain.Engine, when string) {
	t.Helper()
	for _, tb := range pagedTables {
		if at := e.Aux(tb); at != nil {
			if err := at.CheckIndexes(); err != nil {
				t.Fatalf("%s: %s: %v", when, tb, err)
			}
		}
	}
}

// TestPagedCheckIndexes drives a mixed delta stream through a paged engine
// under constant eviction and asserts the hash indexes stay coherent with
// the on-disk rows, and that the view matches an in-memory twin fed the
// same stream.
func TestPagedCheckIndexes(t *testing.T) {
	env, paged := newPagedEngine(t)
	mem, err := env.MinimalEngine(pagedViewSQL)
	if err != nil {
		t.Fatal(err)
	}

	mut := workload.NewMutator(env.DB, env.Params)
	mix := workload.DefaultMix()
	for i := 0; i < 40; i++ {
		d, err := mut.Next(mix)
		if err != nil {
			t.Fatal(err)
		}
		if err := paged.Apply(d); err != nil {
			t.Fatalf("delta %d on paged engine: %v", i, err)
		}
		if err := mem.Apply(d); err != nil {
			t.Fatalf("delta %d on in-memory engine: %v", i, err)
		}
		checkAux(t, paged, fmt.Sprintf("after delta %d", i))
	}
	requireViewsMatch(t, paged.Snapshot(), mem.Snapshot())
}

// requireViewsMatch compares two view snapshots group by group. SUM columns
// may differ in the last ulp between the backends: a recompute accumulates
// floats in scan order, and the paged store scans key-sorted pages while the
// in-memory store iterates a Go map. Everything else must match exactly.
func requireViewsMatch(t *testing.T, got, want *ra.Relation) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("paged view has %d groups, in-memory twin has %d", len(got.Rows), len(want.Rows))
	}
	gpos := []int{0, 1}
	index := make(map[string]tuple.Tuple, len(want.Rows))
	for _, r := range want.Rows {
		index[r.KeyAt(gpos)] = r
	}
	for _, g := range got.Rows {
		w, ok := index[g.KeyAt(gpos)]
		if !ok {
			t.Fatalf("paged view has extra group %v", g[:2])
		}
		for i := range g {
			a, b := g[i].AsFloat(), w[i].AsFloat()
			if diff := a - b; diff > 1e-9*(1+b) || -diff > 1e-9*(1+b) {
				t.Fatalf("group %v column %d: paged %v, in-memory %v", g[:2], i, g[i], w[i])
			}
		}
	}
}

// TestPagedRollbackAcrossEviction sweeps an injected failure across every
// reachable injection point of an update apply — including PageEvict and
// PageFlush inside the buffer pool — on a 4-frame pool where the journaled
// rows are guaranteed to cross the eviction boundary mid-apply. After every
// injected failure the view, the auxiliary rows, and the hash indexes must
// be bit-identical to the pre-delta state.
func TestPagedRollbackAcrossEviction(t *testing.T) {
	env, eng := newPagedEngine(t)

	sale := env.Src("sale")
	if len(sale.Rows) == 0 {
		t.Fatal("no sale rows")
	}
	old := sale.Rows[0]
	alt := old.Clone()
	alt[4] = types.Float(old[4].AsFloat() + 1)
	d := maintain.Delta{Table: "sale", Updates: []maintain.Update{{Old: old, New: alt}}}

	const limit = 100000
	pagePoints := map[faultinject.Point]bool{}
	for failAt := int64(1); failAt <= limit; failAt++ {
		snapBefore, auxBefore := capture(eng)
		h := faultinject.NewHook(failAt)
		eng.SetFaultHook(h)
		err := eng.Apply(d)
		eng.SetFaultHook(nil)
		if err == nil {
			if p, fired := h.Fired(); fired {
				t.Fatalf("hook fired at %s but Apply succeeded", p)
			}
			if !pagePoints[faultinject.PageEvict] {
				t.Fatalf("sweep of %d points never crossed the eviction boundary; shrink the pool", failAt-1)
			}
			t.Logf("sweep committed after %d injected failures (page points hit: %v)", failAt-1, pagePoints)
			return
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("failAt=%d: apply failed with a genuine error: %v", failAt, err)
		}
		p, _ := h.Fired()
		if p == faultinject.PageEvict || p == faultinject.PageFlush {
			pagePoints[p] = true
		}
		when := fmt.Sprintf("failAt=%d (%s)", failAt, p)
		if got := eng.Snapshot(); !ra.EqualBag(got, snapBefore) {
			t.Fatalf("%s: materialized view changed after failed apply", when)
		}
		for tb, want := range auxBefore {
			if got := eng.Aux(tb).Relation(); !ra.EqualBag(got, want) {
				t.Fatalf("%s: auxiliary table %s changed after failed apply", when, tb)
			}
		}
		checkAux(t, eng, when)
	}
	t.Fatalf("sweep did not terminate within %d injection points", limit)
}
