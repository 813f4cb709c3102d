package maintain

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Tests of incremental snapshot publication (MaterializedView.Published):
// after any sequence of writes, the published relation must equal a
// from-scratch sort-and-render of the component rows — same row order,
// tuple.Identical per row — and published relations are never mutated.

// requirePublished publishes e's view and compares the result with a
// from-scratch sort-and-render of its component rows.
func requirePublished(t testing.TB, e *Engine, when string) {
	t.Helper()
	got := e.Published()
	mv := e.mv
	keys := make([]string, 0, len(mv.rows))
	for k := range mv.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got.Rows) != len(keys) || len(mv.pubKeys) != len(keys) {
		t.Fatalf("%s: published %d rows (%d keys), view has %d groups",
			when, len(got.Rows), len(mv.pubKeys), len(keys))
	}
	for i, k := range keys {
		if mv.pubKeys[i] != k {
			t.Fatalf("%s: published key %d is %q, want %q", when, i, mv.pubKeys[i], k)
		}
		if want := mv.render(mv.rows[k]); !tuple.Identical(got.Rows[i], want) {
			t.Fatalf("%s: published row %d is %v, from-scratch render %v", when, i, got.Rows[i], want)
		}
	}
}

// sameRelation reports whether a and b hold tuple.Identical rows in the
// same order.
func sameRelation(a, b *ra.Relation) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if !tuple.Identical(a.Rows[i], b.Rows[i]) {
			return false
		}
	}
	return true
}

// publishedStream drives a seeded random delta stream — sale inserts,
// deletes and price updates, brand renames, and time rows that open and
// close groups — through f, checking the published snapshot after every
// step (fixture.check calls requirePublished). New time rows get ids from
// 20 up.
func publishedStream(f *fixture, seed int64, steps int) {
	f.t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var live []int64
	for _, r := range f.db.Table("sale").All() {
		live = append(live, r[0].AsInt())
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	nextTime := int64(20)
	var times []int64
	for _, r := range f.db.Table("time").All() {
		if id := r[0].AsInt(); id >= nextTime {
			times = append(times, id)
			nextTime = id + 1
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	for step := 0; step < steps; step++ {
		switch rng.Intn(7) {
		case 0, 1:
			tid := int64(rng.Intn(6) + 1)
			if len(times) > 0 && rng.Intn(3) == 0 {
				tid = times[rng.Intn(len(times))]
			}
			f.insertSale(tid, int64(rng.Intn(3)+100), int64(rng.Intn(2)+7), float64(rng.Intn(50))+0.5)
			live = append(live, f.saleID)
		case 2:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			f.deleteRow("sale", live[i])
			live = append(live[:i], live[i+1:]...)
		case 3:
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			f.updateRow("sale", id, map[string]types.Value{"price": types.Float(float64(rng.Intn(80)))})
		case 4:
			pid := int64(rng.Intn(3) + 100)
			f.updateRow("product", pid, map[string]types.Value{"brand": types.Str(fmt.Sprintf("b%d", rng.Intn(4)))})
		case 5:
			// A fresh time row in a new month: sales against it create
			// groups, deleting them drops the groups again.
			f.insertRow("time", types.Int(nextTime), types.Int(nextTime), types.Int(nextTime), types.Int(1997))
			times = append(times, nextTime)
			nextTime++
		case 6:
			// Drop every sale of one group-creating time row.
			if len(times) == 0 {
				continue
			}
			tid := times[rng.Intn(len(times))]
			kept := live[:0]
			for _, id := range live {
				if row := f.db.Table("sale").Get(types.Int(id)); row != nil && row[1].AsInt() == tid {
					f.deleteRow("sale", id)
					continue
				}
				kept = append(kept, id)
			}
			live = kept
		}
	}
}

// sweepPublished is sweepApply with a publication before every attempt and
// a check after every rolled-back one: the rollback's restores go through
// the dirty set, so the republished relation must equal both the
// from-scratch render and the relation published before the attempt.
func sweepPublished(t *testing.T, f *fixture, d Delta) {
	t.Helper()
	for failAt := int64(1); failAt <= 100000; failAt++ {
		before := deepClone(f.engine.Published())
		h := faultinject.NewHook(failAt)
		f.engine.SetFaultHook(h)
		err := f.engine.Apply(d)
		f.engine.SetFaultHook(nil)
		if err == nil {
			f.check(fmt.Sprintf("after swept delta on %s", d.Table))
			return
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("failAt=%d: genuine error: %v", failAt, err)
		}
		p, _ := h.Fired()
		when := fmt.Sprintf("failAt=%d (%s)", failAt, p)
		requirePublished(t, f.engine, when)
		if !sameRelation(f.engine.Published(), before) {
			t.Fatalf("%s: rollback changed the published view\nbefore:\n%s\nafter:\n%s",
				when, before.Format(), f.engine.Published().Format())
		}
	}
	t.Fatal("sweep did not terminate")
}

const globalViewSQL = `
	SELECT SUM(price) AS total, COUNT(*) AS cnt, COUNT(DISTINCT sale.storeid) AS stores
	FROM sale, time WHERE sale.timeid = time.id AND time.year = 1997`

const rekeyViewSQL = `
	SELECT product.id, product.brand, SUM(price) AS total, COUNT(*) AS cnt
	FROM sale, product WHERE sale.productid = product.id
	GROUP BY product.id, product.brand`

const monthDistinctSQL = `
	SELECT time.month, store.city, COUNT(DISTINCT brand) AS brands, SUM(price) AS total,
	       MIN(price) AS lo, COUNT(*) AS cnt
	FROM sale, time, product, store
	WHERE sale.timeid = time.id AND sale.productid = product.id AND sale.storeid = store.id
	GROUP BY time.month, store.city`

// TestFaultInjectionPublishedSnapshot is the shadow test of incremental
// publication: seeded delta streams over views that create and drop
// groups, recompute scoped and through the full-join fallback, rekey
// groups on dimension updates, install sharded overlays, roll back at every
// fault-injection point, and import exported state.
func TestFaultInjectionPublishedSnapshot(t *testing.T) {
	views := []struct {
		name string
		sql  string
	}{
		{"paper", productSalesSQL},
		{"distinct", monthDistinctSQL},
		{"csmas", shardCSMASSQL},
		{"global", globalViewSQL},
		{"rekey", rekeyViewSQL},
	}
	for _, vc := range views {
		for _, mode := range []string{"scoped", "full", "sharded"} {
			t.Run(vc.name+"/"+mode, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					f := newFixture(t, retailDDL, vc.sql, true)
					switch mode {
					case "full":
						f.engine.ForceFullRecompute = true
					case "sharded":
						f.engine.Shards = 4
						f.engine.ShardMinRows = 1
					}
					f.seedRetail()
					f.initEngine()
					publishedStream(f, seed, 80)
					if mode == "sharded" {
						shardWorkload(f)
					}
				}
			})
		}
	}

	t.Run("rollback", func(t *testing.T) {
		for _, vc := range views {
			for _, shards := range []int{1, 4} {
				f := newFixture(t, retailDDL, vc.sql, true)
				f.engine.Shards = shards
				f.engine.ShardMinRows = 1
				f.seedRetail()
				f.initEngine()
				// A new month's first sale creates a group; deleting it
				// drops the group again.
				trow := tuple.Tuple{types.Int(30), types.Int(30), types.Int(9), types.Int(1997)}
				if err := f.db.Insert("time", trow); err != nil {
					t.Fatal(err)
				}
				sweepPublished(t, f, Delta{Table: "time", Inserts: []tuple.Tuple{trow}})
				f.saleID++
				row := tuple.Tuple{types.Int(f.saleID), types.Int(30), types.Int(102), types.Int(8), types.Float(21)}
				if err := f.db.Insert("sale", row); err != nil {
					t.Fatal(err)
				}
				sweepPublished(t, f, Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
				sweepPublished(t, f, bulkInsertSales(f, 24))
				old, upd, err := f.db.Update("product", types.Int(100), map[string]types.Value{"brand": types.Str("apex")})
				if err != nil {
					t.Fatal(err)
				}
				sweepPublished(t, f, Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
				sweepPublished(t, f, bulkUpdateSales(f, []int64{1, 3, f.saleID}))
				del, err := f.db.Delete("sale", row[0])
				if err != nil {
					t.Fatal(err)
				}
				sweepPublished(t, f, Delta{Table: "sale", Deletes: []tuple.Tuple{del}})
			}
		}
	})

	t.Run("import", func(t *testing.T) {
		for _, vc := range views {
			src := newFixture(t, retailDDL, vc.sql, true)
			src.seedRetail()
			src.initEngine()
			publishedStream(src, 7, 40)

			// The importing engine has published state of its own, which
			// the wholesale replacement must discard.
			dst := newFixture(t, retailDDL, vc.sql, true)
			dst.seedRetail()
			dst.initEngine()
			dst.insertSale(2, 101, 8, 3.5)
			if err := dst.engine.ImportState(src.engine.ExportState()); err != nil {
				t.Fatal(err)
			}
			requirePublished(t, dst.engine, vc.name+": after import")
			if !sameRelation(dst.engine.Published(), src.engine.Published()) {
				t.Fatalf("%s: imported view differs from its source", vc.name)
			}
			// Later deltas publish incrementally over the imported state.
			dst.db, dst.saleID = src.db, src.saleID
			publishedStream(dst, 8, 40)
		}
	})
}

// TestSumDistinctIsOrderIndependent recomputes a FLOAT SUM/AVG(DISTINCT)
// group whose distinct values sum differently in different orders (1e16 +
// 1 rounds back to 1e16) and requires the same bits every time.
func TestSumDistinctIsOrderIndependent(t *testing.T) {
	for _, fn := range []string{"SUM", "AVG"} {
		t.Run(fn, func(t *testing.T) {
			f := newFixture(t, retailDDL, `SELECT sale.productid, `+fn+`(DISTINCT price) AS d, COUNT(*) AS cnt
				FROM sale GROUP BY sale.productid`, true)
			f.seedRetail()
			for i, p := range []float64{1e16, 1, -1e16, 2} {
				row := tuple.Tuple{types.Int(int64(500 + i)), types.Int(1), types.Int(100), types.Int(7), types.Float(p)}
				if err := f.db.Insert("sale", row); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.engine.Init(func(tb string) *ra.Relation {
				return ra.FromTable(f.db.Table(tb), tb)
			}); err != nil {
				t.Fatal(err)
			}
			keys := mvGroupSet(f.engine)
			var first *ra.Relation
			for i := 0; i < 50; i++ {
				if err := f.engine.recomputeGroups(keys); err != nil {
					t.Fatal(err)
				}
				got := f.engine.Snapshot()
				if first == nil {
					first = got
				} else if !sameRelation(got, first) {
					t.Fatalf("recompute %d gave\n%s\nfirst gave\n%s", i, got.Format(), first.Format())
				}
			}
		})
	}
}
