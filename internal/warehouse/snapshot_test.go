package warehouse

import (
	"fmt"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// Tests of the Query read path over incrementally published snapshots.

const grpDDL = `CREATE TABLE sale (id INTEGER PRIMARY KEY, grp INTEGER, price FLOAT MUTABLE);`

const grpSelect = `SELECT sale.grp, SUM(price) AS total, COUNT(*) AS cnt FROM sale GROUP BY sale.grp`

// grpWarehouse builds a warehouse whose one view, by_grp, has n groups of
// two sales each. Sale ids 1..2n are taken.
func grpWarehouse(t testing.TB, n int) *Warehouse {
	t.Helper()
	w := New()
	if _, err := w.Exec(grpDDL); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2*n; i++ {
		row := tuple.Tuple{types.Int(int64(i)), types.Int(int64(i % n)), types.Float(float64(i%8) * 0.25)}
		if err := w.Source().Insert("sale", row); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Exec("CREATE MATERIALIZED VIEW by_grp AS " + grpSelect); err != nil {
		t.Fatal(err)
	}
	return w
}

// grpSale is a one-sale insert into group g.
func grpSale(id int64, g int64, price float64) maintain.Delta {
	return maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{{types.Int(id), types.Int(g), types.Float(price)}}}
}

func queryGrp(t testing.TB, w *Warehouse) *ra.Relation {
	t.Helper()
	rel, err := w.Query("by_grp")
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// requireSameRows fails unless a and b hold tuple.Identical rows in the
// same order.
func requireSameRows(t testing.TB, a, b *ra.Relation, when string) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: %d rows != %d rows", when, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if !tuple.Identical(a.Rows[i], b.Rows[i]) {
			t.Fatalf("%s: row %d is %v, want %v", when, i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestQuerySnapshotImmutable holds a relation returned by Query across 100
// deltas that adjust, create and drop groups, and requires it unchanged;
// every later Query must match the private locked-path copy, writing that
// copy must not reach the published relation, and a view restored from
// exported state must publish the same bytes.
func TestQuerySnapshotImmutable(t *testing.T) {
	w := grpWarehouse(t, 50)
	held := queryGrp(t, w)
	want := &ra.Relation{Cols: append(ra.Schema(nil), held.Cols...)}
	for _, row := range held.Rows {
		want.Rows = append(want.Rows, row.Clone())
	}
	id := int64(1000)
	var fresh []int64
	for i := 0; i < 100; i++ {
		var d maintain.Delta
		switch {
		case i%10 == 9 && len(fresh) > 0:
			// Drop the newest group created below.
			d = maintain.Delta{Table: "sale", Deletes: []tuple.Tuple{
				{types.Int(fresh[0]), types.Int(fresh[0]), types.Float(1)}}}
			fresh = fresh[1:]
		case i%5 == 0:
			// Open a new group above the initial ones.
			id++
			d = grpSale(id, id, 1)
			fresh = append(fresh, id)
		default:
			id++
			d = grpSale(id, int64(i%50), float64(i%4)*0.25)
		}
		if err := w.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		got := queryGrp(t, w)
		w.DisableSnapshots = true
		requireSameRows(t, got, queryGrp(t, w), fmt.Sprintf("delta %d: published vs locked copy", i))
		w.DisableSnapshots = false
	}
	requireSameRows(t, held, want, "held relation after 100 deltas")

	pub := queryGrp(t, w)
	w.DisableSnapshots = true
	scribbled := queryGrp(t, w)
	scribbled.Rows[0][0] = types.Str("scribbled")
	scribbled.Cols[0].Name = "scribbled"
	w.DisableSnapshots = false
	if again := queryGrp(t, w); again != pub || pub.Cols[0].Name == "scribbled" ||
		types.Identical(pub.Rows[0][0], types.Str("scribbled")) {
		t.Fatal("writing a DisableSnapshots copy reached the published relation")
	}

	// RestoreView replaces a view's rows wholesale; the restored view
	// publishes from scratch and then incrementally again.
	restored := New()
	if _, err := restored.Exec(grpDDL); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreView("by_grp", grpSelect, false, w.views["by_grp"].Engine.ExportState()); err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, queryGrp(t, restored), queryGrp(t, w), "restored view")
	for i := 0; i < 5; i++ {
		id++
		for _, x := range []*Warehouse{w, restored} {
			if err := x.ApplyDelta(grpSale(id, int64(i), 0.5)); err != nil {
				t.Fatal(err)
			}
		}
		requireSameRows(t, queryGrp(t, restored), queryGrp(t, w), fmt.Sprintf("restored view, delta %d", i))
	}
}

// TestQueryAllocsIndependentOfGroups measures the allocations of a Query
// that follows a one-group delta, on views of 250 and of 1000 groups. The
// publication re-renders only the touched group, so the count must not
// grow with the view.
func TestQueryAllocsIndependentOfGroups(t *testing.T) {
	queryAllocs := func(n int) float64 {
		w := grpWarehouse(t, n)
		queryGrp(t, w)
		id := int64(10 * n)
		apply := func() {
			id++
			if err := w.ApplyDelta(grpSale(id, 1, 0.25)); err != nil {
				t.Fatal(err)
			}
		}
		both := testing.AllocsPerRun(100, func() {
			apply()
			queryGrp(t, w)
		})
		return both - testing.AllocsPerRun(100, apply)
	}
	small, large := queryAllocs(250), queryAllocs(1000)
	if large > small+2 {
		t.Fatalf("Query after a one-group delta: %.0f allocs at 250 groups, %.0f at 1000", small, large)
	}
}
