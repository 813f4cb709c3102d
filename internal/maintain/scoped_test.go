package maintain

import (
	"fmt"
	"testing"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// checkAuxIndexes verifies the structural invariants of every hash index on
// an auxiliary table: each row appears exactly once per index, under the
// entry matching its current attribute value, and no entry is stale.
func checkAuxIndexes(t *testing.T, at *AuxTable) {
	t.Helper()
	for attr, m := range at.idx {
		pos, ok := at.idxPos[attr]
		if !ok {
			t.Fatalf("%s: index on %s has no cached position", at.def.Name, attr)
		}
		total := 0
		for vk, keys := range m {
			for _, k := range keys {
				total++
				row, ok, err := at.store.GetString(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("%s: index on %s references missing row %q", at.def.Name, attr, k)
				}
				if got := string(types.Encode(nil, row[pos])); got != vk {
					t.Fatalf("%s: index on %s lists row %q under stale value (have %q, row encodes %q)",
						at.def.Name, attr, k, vk, got)
				}
			}
		}
		if total != at.Len() {
			t.Fatalf("%s: index on %s holds %d entries for %d rows", at.def.Name, attr, total, at.Len())
		}
	}
}

// lookupVals returns the encoded keys of the rows an index probe yields.
func lookupVals(at *AuxTable, attr string, v types.Value) []string {
	var out []string
	for _, r := range at.Lookup(attr, v) {
		out = append(out, r.Key())
	}
	return out
}

// TestAuxTableIndexConsistency drives update (re-key) and group-death
// traffic through an engine and asserts that every auxiliary index follows
// the key changes: entries move with the rows, probes of old values miss,
// and no stale entries accumulate.
func TestAuxTableIndexConsistency(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT brand, SUM(price) AS total, COUNT(*) AS cnt
		 FROM sale, product WHERE sale.productid = product.id GROUP BY brand`, true)
	f.seedRetail()
	f.initEngine()

	prod := f.engine.Aux("product") // PSJ: id (join key), brand (group-by)
	if prod == nil {
		t.Fatal("product auxiliary view missing")
	}
	if err := prod.EnsureIndex("brand"); err != nil {
		t.Fatal(err)
	}
	sale := f.engine.Aux("sale") // compressed root: productid plain + SUM/COUNT
	if sale == nil {
		t.Fatal("sale auxiliary view missing")
	}
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)

	// Re-key: a brand rename must move the product row's index entries.
	if got := lookupVals(prod, "brand", types.Str("acme")); len(got) != 1 {
		t.Fatalf("brand=acme: got %d rows, want 1", len(got))
	}
	f.updateRow("product", 100, map[string]types.Value{"brand": types.Str("apex")})
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(prod, "brand", types.Str("acme")); len(got) != 0 {
		t.Fatalf("brand=acme after rename: got %d rows, want 0", len(got))
	}
	if got := lookupVals(prod, "brand", types.Str("apex")); len(got) != 1 {
		t.Fatalf("brand=apex after rename: got %d rows, want 1", len(got))
	}

	// Group death: deleting every sale of product 102 must remove the
	// compressed group and its index entries.
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 1 {
		t.Fatalf("productid=102: got %d groups, want 1", len(got))
	}
	f.deleteRow("sale", 5)
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 0 {
		t.Fatalf("productid=102 after delete: got %d groups, want 0", len(got))
	}

	// Growth after death: re-inserting re-creates the group and entry.
	f.insertSale(3, 102, 8, 4.25)
	checkAuxIndexes(t, prod)
	checkAuxIndexes(t, sale)
	if got := lookupVals(sale, "productid", types.Int(102)); len(got) != 1 {
		t.Fatalf("productid=102 after re-insert: got %d groups, want 1", len(got))
	}
}

// TestScopedAuxDetailMatchesFull asserts the heart of the delta-scoped
// pipeline: for any affected-group set, the streamed scoped recomputation
// yields exactly the component rows of the full auxiliary re-join, while
// probing only rows reachable from the groups' own key values. Cases cover
// a single-engine view, several affected groups in one recompute (part of
// ScopedMatchesFull), and the residual conditions of a shared plan; the
// paged-store case lives in pagedstore_test.go.
func TestScopedAuxDetailMatchesFull(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		f := newFixture(t, retailDDL,
			`SELECT month, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
			 FROM sale, time, product
			 WHERE sale.timeid = time.id AND sale.productid = product.id AND time.year = 1997
			 GROUP BY month`, true)
		f.seedRetail()
		f.initEngine()
		if err := ScopedMatchesFull(f.engine); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("several_groups", func(t *testing.T) {
		// Two group-by columns owned by different tables: the seed view's
		// own projection admits more rows than the affected groups, so the
		// accumulator's exact-key filter does real work.
		f := newFixture(t, retailDDL,
			`SELECT month, brand, SUM(price) AS total, COUNT(DISTINCT storeid) AS stores
			 FROM sale, time, product
			 WHERE sale.timeid = time.id AND sale.productid = product.id
			 GROUP BY month, brand`, true)
		f.seedRetail()
		f.initEngine()
		f.insertSale(2, 100, 7, 2.5)
		f.insertSale(3, 101, 8, 0.75)
		f.insertSale(4, 102, 7, 3.25)
		if err := ScopedMatchesFull(f.engine); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("shared_residual", func(t *testing.T) {
		// The year conditions of TestSharedEnginesResidualConditions, with
		// DISTINCT so both views recompute: the shared time view keeps both
		// years, so the walk re-applies the residual year condition at the
		// seed (view 0 seeds from time) or at the time fold (view 1 seeds
		// from product).
		f := newSharedFixture(t,
			`SELECT time.month, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
			 FROM sale, time, product
			 WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
			 GROUP BY time.month`,
			`SELECT product.brand, SUM(price) AS total, COUNT(DISTINCT month) AS months
			 FROM sale, time, product
			 WHERE time.year = 1998 AND sale.timeid = time.id AND sale.productid = product.id
			 GROUP BY product.brand`,
		)
		f.seedRetail()
		f.init()
		for i := 0; i < f.se.Views(); i++ {
			e := f.se.Engine(i)
			if len(e.residual) == 0 {
				t.Fatalf("view %d has no residual conditions; the case tests nothing", i)
			}
			if err := ScopedMatchesFull(e); err != nil {
				t.Fatalf("view %d: %v", i, err)
			}
		}
	})
}

// TestParallelRecomputeMatchesSerial aggregates an above-threshold detail
// relation with one worker and with many, asserting identical component
// rows. Under -race this also proves the worker pool clean.
func TestParallelRecomputeMatchesSerial(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT day, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
		 FROM sale, time, product
		 WHERE sale.timeid = time.id AND sale.productid = product.id
		 GROUP BY day`, true)
	// A seed set large enough to clear parallelRecomputeThreshold, with
	// distinct prices so the root view barely compresses.
	ins := func(table string, vals ...types.Value) {
		if err := f.db.Insert(table, tuple.Tuple(vals)); err != nil {
			t.Fatal(err)
		}
	}
	days := 500
	for id := 1; id <= days; id++ {
		ins("time", types.Int(int64(id)), types.Int(int64(id%28+1)), types.Int(int64(id/28+1)), types.Int(1997))
	}
	// 19 is coprime with the day count, so (timeid, productid) pairs — the
	// root view's grouping — stay distinct and the detail stays large.
	for id := 1; id <= 19; id++ {
		ins("product", types.Int(int64(id)), types.Str(fmt.Sprintf("b%d", id%7)), types.Str("c"))
	}
	ins("store", types.Int(1), types.Str("aalborg"), types.Str("kim"))
	n := parallelRecomputeThreshold + 1000
	for id := 1; id <= n; id++ {
		ins("sale", types.Int(int64(id)), types.Int(int64(id%days+1)), types.Int(int64(id%19+1)),
			types.Int(1), types.Float(float64(id%997)+0.25))
	}
	f.initEngine()
	e := f.engine

	full, err := e.fullAuxDetail()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.rel.Rows) < parallelRecomputeThreshold {
		t.Fatalf("detail has %d rows, below parallel threshold %d", len(full.rel.Rows), parallelRecomputeThreshold)
	}
	e.Workers = 1
	serial, err := e.computeGroups(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Workers = 8
	parallel, err := e.computeGroups(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial produced %d groups, parallel %d", len(serial), len(parallel))
	}
	for k, want := range serial {
		got, ok := parallel[k]
		if !ok {
			t.Fatalf("parallel result missing group %q", k)
		}
		if !tuple.Identical(got, want) {
			t.Fatalf("group %q: parallel %v != serial %v", k, got, want)
		}
	}

	// End to end: a deletion-driven recomputation (DISTINCT forces the
	// recompute path) must leave the view identical under both pool sizes.
	shadow := mustEngine(t, e.plan)
	shadow.Workers = 1
	shadow.ForceFullRecompute = true
	if err := shadow.Init(func(tb string) *ra.Relation {
		return ra.FromTable(f.db.Table(tb), tb)
	}); err != nil {
		t.Fatal(err)
	}
	row, err := f.db.Delete("sale", types.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Table: "sale", Deletes: []tuple.Tuple{row}}
	if err := e.Apply(d); err != nil {
		t.Fatal(err)
	}
	if err := shadow.Apply(d); err != nil {
		t.Fatal(err)
	}
	if g, s := e.Snapshot().Format(), shadow.Snapshot().Format(); g != s {
		t.Fatalf("scoped+parallel snapshot diverged from full+serial:\n%s\n---\n%s", g, s)
	}
}

// TestScopedPathFallsBackForGlobalViews exercises the fallback: a view with
// no group-by attributes cannot seed the scoped path and must still repair
// correctly through the full re-join.
func TestScopedPathFallsBackForGlobalViews(t *testing.T) {
	f := newFixture(t, retailDDL,
		`SELECT SUM(price) AS total, COUNT(DISTINCT brand) AS brands
		 FROM sale, product WHERE sale.productid = product.id`, true)
	f.seedRetail()
	f.initEngine()

	_, ok, err := f.engine.scopedGroups(mvGroupSet(f.engine))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("scoped path unexpectedly seeded a global view")
	}
	f.deleteRow("sale", 1) // forces recomputation through the fallback
	f.deleteRow("sale", 2)
}

// TestScopedRecomputeAllocsFlat recomputes one COUNT(DISTINCT) group of n
// detail rows and one of 4n and requires the same allocation count: the
// streamed walk builds joined rows in a reused buffer, so allocations
// follow the number of groups and distinct values, not of detail rows.
func TestScopedRecomputeAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		f := newFixture(t, retailDDL,
			`SELECT month, SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
			 FROM sale, time, product
			 WHERE sale.timeid = time.id AND sale.productid = product.id
			 GROUP BY month`, true)
		ins := func(table string, vals ...types.Value) {
			if err := f.db.Insert(table, tuple.Tuple(vals)); err != nil {
				t.Fatal(err)
			}
		}
		// One month of 10 days; n/10 products over 5 brands; one sale per
		// (day, product), so the root view keeps n distinct groups.
		for d := 1; d <= 10; d++ {
			ins("time", types.Int(int64(d)), types.Int(int64(d)), types.Int(1), types.Int(1997))
		}
		for p := 1; p <= n/10; p++ {
			ins("product", types.Int(int64(p)), types.Str(fmt.Sprintf("b%d", p%5)), types.Str("c"))
		}
		ins("store", types.Int(1), types.Str("aalborg"), types.Str("kim"))
		id := int64(0)
		for d := 1; d <= 10; d++ {
			for p := 1; p <= n/10; p++ {
				id++
				ins("sale", types.Int(id), types.Int(int64(d)), types.Int(int64(p)), types.Int(1), types.Float(float64(id%7)+0.5))
			}
		}
		f.initEngine()
		e := f.engine
		keys := mvGroupSet(e)
		if len(keys) != 1 {
			t.Fatalf("want one group, have %d", len(keys))
		}
		var rerr error
		a := testing.AllocsPerRun(20, func() {
			groups, ok, err := e.scopedGroups(keys)
			if err == nil && (!ok || len(groups) != 1) {
				err = fmt.Errorf("scoped recompute: ok=%v, %d groups", ok, len(groups))
			}
			if err != nil {
				rerr = err
			}
		})
		if rerr != nil {
			t.Fatal(rerr)
		}
		if got := e.Stats().DetailRows; got != 0 {
			t.Fatalf("detail rows counted during a recompute: %d", got)
		}
		return a
	}
	const n = 200
	small, large := allocs(n), allocs(4*n)
	if large > small {
		t.Fatalf("recomputing a group of %d detail rows allocates %.0f times, of %d rows %.0f times; want no growth",
			n, small, 4*n, large)
	}
	t.Logf("allocations per recompute: %.0f at %d rows, %.0f at %d rows", small, n, large, 4*n)
}
