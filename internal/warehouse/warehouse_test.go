package warehouse

import (
	"strings"
	"testing"

	"mindetail/internal/maintain"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

const setupSQL = `
CREATE TABLE time (id INTEGER PRIMARY KEY, day INTEGER, month INTEGER, year INTEGER);
CREATE TABLE product (id INTEGER PRIMARY KEY, brand VARCHAR MUTABLE, category VARCHAR);
CREATE TABLE store (id INTEGER PRIMARY KEY, city VARCHAR, manager VARCHAR MUTABLE);
CREATE TABLE sale (id INTEGER PRIMARY KEY,
	timeid INTEGER REFERENCES time,
	productid INTEGER REFERENCES product,
	storeid INTEGER REFERENCES store,
	price FLOAT MUTABLE);

INSERT INTO time VALUES (1, 5, 1, 1997), (2, 6, 1, 1997), (3, 7, 2, 1997), (4, 8, 1, 1998);
INSERT INTO product VALUES (100, 'acme', 'tools'), (101, 'bolt', 'tools');
INSERT INTO store VALUES (7, 'aalborg', 'kim');
INSERT INTO sale VALUES
	(1, 1, 100, 7, 10), (2, 1, 100, 7, 10), (3, 2, 101, 7, 5),
	(4, 3, 101, 7, 7), (5, 4, 100, 7, 99);
`

const viewSQL = `
CREATE MATERIALIZED VIEW product_sales AS
SELECT time.month, SUM(price) AS TotalPrice, COUNT(*) AS TotalCount,
       COUNT(DISTINCT brand) AS DifferentBrands
FROM sale, time, product
WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
GROUP BY time.month;
`

func newRetail(t *testing.T) *Warehouse {
	t.Helper()
	w := New()
	if _, err := w.Exec(setupSQL); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(viewSQL); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEndToEndPaperExample(t *testing.T) {
	w := newRetail(t)
	rel, err := w.Query("product_sales")
	if err != nil {
		t.Fatal(err)
	}
	s := rel.Sorted()
	if s.Len() != 2 {
		t.Fatalf("view:\n%s", s.Format())
	}
	// month 1: sales 1,2,3 -> 25, 3 rows, 2 brands; month 2: sale 4.
	if s.Rows[0][1].AsFloat() != 25 || s.Rows[0][2].AsInt() != 3 || s.Rows[0][3].AsInt() != 2 {
		t.Errorf("month 1 = %v", s.Rows[0])
	}
	if s.Rows[1][1].AsFloat() != 7 || s.Rows[1][2].AsInt() != 1 || s.Rows[1][3].AsInt() != 1 {
		t.Errorf("month 2 = %v", s.Rows[1])
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDMLPropagation(t *testing.T) {
	w := newRetail(t)
	steps := []string{
		`INSERT INTO sale VALUES (6, 2, 100, 7, 30)`,
		`DELETE FROM sale WHERE id = 1`,
		`UPDATE sale SET price = 12 WHERE id = 2`,
		`UPDATE product SET brand = 'zeta' WHERE id = 101`,
		`INSERT INTO time VALUES (5, 9, 3, 1997)`,
		`INSERT INTO sale VALUES (7, 5, 101, 7, 2.5)`,
		`DELETE FROM sale WHERE price > 90`,
	}
	for _, sql := range steps {
		if _, err := w.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if err := w.Verify(); err != nil {
			t.Fatalf("after %q: %v", sql, err)
		}
	}
}

func TestAdHocSelect(t *testing.T) {
	w := newRetail(t)
	rel, err := w.Exec(`SELECT sale.productid, COUNT(*) AS cnt FROM sale GROUP BY sale.productid`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("ad hoc select:\n%s", rel.Format())
	}
	// SELECT over the materialized view reads the snapshot.
	rel, err = w.Exec(`SELECT month, TotalPrice, TotalCount, DifferentBrands FROM product_sales`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Errorf("view select:\n%s", rel.Format())
	}
}

func TestDetachedMaintenance(t *testing.T) {
	w := newRetail(t)
	w.DetachSources()
	if !w.Detached() {
		t.Fatal("not detached")
	}
	// SQL DML must fail.
	for _, sql := range []string{
		`INSERT INTO sale VALUES (9, 1, 100, 7, 1)`,
		`DELETE FROM sale WHERE id = 1`,
		`UPDATE sale SET price = 2 WHERE id = 1`,
		`CREATE TABLE t2 (id INTEGER PRIMARY KEY)`,
		`SELECT sale.id, COUNT(*) FROM sale GROUP BY sale.id`,
	} {
		if _, err := w.Exec(sql); err == nil {
			t.Errorf("%q should fail when detached", sql)
		}
	}
	// Deltas still propagate.
	row := tuple.Tuple{types.Int(9), types.Int(1), types.Int(100), types.Int(7), types.Float(40)}
	if err := w.ApplyDelta(maintain.Delta{Table: "sale", Inserts: []tuple.Tuple{row}}); err != nil {
		t.Fatal(err)
	}
	rel, err := w.Query("product_sales")
	if err != nil {
		t.Fatal(err)
	}
	s := rel.Sorted()
	if s.Rows[0][1].AsFloat() != 65 || s.Rows[0][2].AsInt() != 4 {
		t.Errorf("detached maintenance wrong: %v", s.Rows[0])
	}
	if err := w.Verify(); err == nil {
		t.Error("Verify must fail when detached")
	}
}

func TestMultipleViews(t *testing.T) {
	w := newRetail(t)
	if _, err := w.Exec(`
		CREATE MATERIALIZED VIEW by_product AS
		SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.id`); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(`INSERT INTO sale VALUES (6, 1, 101, 7, 3)`); err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := w.ViewNames(); len(got) != 2 {
		t.Errorf("views = %v", got)
	}
}

func TestStorageReport(t *testing.T) {
	w := newRetail(t)
	if _, err := w.Exec(`
		CREATE MATERIALIZED VIEW by_product AS
		SELECT product.id, SUM(price) AS total, COUNT(*) AS cnt
		FROM sale, product WHERE sale.productid = product.id
		GROUP BY product.id`); err != nil {
		t.Fatal(err)
	}
	reports := w.Report()
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	ps := reports[0]
	if ps.View != "product_sales" || ps.BaseRows == 0 || ps.AuxRows == 0 {
		t.Errorf("report = %+v", ps)
	}
	if ps.AuxBytes >= ps.BaseBytes {
		t.Errorf("auxiliary views should be smaller: %+v", ps)
	}
	bp := reports[1]
	if len(bp.OmittedTables) != 1 || bp.OmittedTables[0] != "sale" {
		t.Errorf("by_product omitted = %v", bp.OmittedTables)
	}
	out := FormatReport(reports)
	if !strings.Contains(out, "product_sales") || !strings.Contains(out, "omitted auxiliary views: sale") {
		t.Errorf("FormatReport:\n%s", out)
	}
}

func TestExecErrors(t *testing.T) {
	w := newRetail(t)
	cases := []string{
		`CREATE TABLE sale (id INTEGER PRIMARY KEY)`, // duplicate
		viewSQL,                           // duplicate view
		`INSERT INTO nosuch VALUES (1)`,   // unknown table
		`DELETE FROM nosuch WHERE id = 1`, // unknown table
		`SELECT nothere, COUNT(*) FROM sale GROUP BY nothere`,
		`CREATE MATERIALIZED VIEW bad AS SELECT sale.id, SUM(price) FROM sale GROUP BY sale.id`, // superfluous
		`UPDATE sale SET id = 9 WHERE id = 1`,                                                   // key update
		`SELECT month FROM product_sales WHERE month = 1`,                                       // filtered view read
	}
	for _, sql := range cases {
		if _, err := w.Exec(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestMustExecPanics(t *testing.T) {
	w := New()
	defer func() {
		if recover() == nil {
			t.Error("MustExec should panic on error")
		}
	}()
	w.MustExec(`INSERT INTO nosuch VALUES (1)`)
}

// TestExecStatementErrorContext: a mid-script failure names the 1-based
// statement and an abbreviated SQL fragment, earlier statements keep their
// effects (per-statement atomicity), and later ones never run.
func TestExecStatementErrorContext(t *testing.T) {
	w := newRetail(t)
	_, err := w.Exec(`
		INSERT INTO sale VALUES (6, 1, 100, 7, 1);
		INSERT INTO sale VALUES (6, 1, 100, 7, 2);
		INSERT INTO sale VALUES (7, 1, 100, 7, 3);
	`)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	for _, want := range []string{"statement 2", "INSERT INTO sale VALUES (6, 1, 100, 7, 2)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
	// Statement 1 persisted; statements 2 and 3 left no trace anywhere.
	if got := w.Source().Table("sale").Len(); got != 6 {
		t.Errorf("sale rows = %d, want 6 (5 seed + statement 1)", got)
	}
	if err := w.Verify(); err != nil {
		t.Fatalf("views inconsistent after failed script: %v", err)
	}
	// Single-statement errors are not wrapped with script context.
	_, err = w.Exec(`INSERT INTO sale VALUES (6, 1, 100, 7, 9)`)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	if strings.Contains(err.Error(), "statement 1") {
		t.Errorf("single statement error carries script context: %v", err)
	}
	// Long statements are abbreviated in the error.
	_, err = w.Exec(`
		SELECT month FROM product_sales;
		INSERT INTO sale VALUES (6, 1, 100, 7, 1), (60, 1, 100, 7, 1), (61, 1, 100, 7, 1), (62, 1, 100, 7, 1);
	`)
	if err == nil {
		t.Fatal("duplicate key accepted")
	}
	if !strings.Contains(err.Error(), "...") {
		t.Errorf("long statement not abbreviated: %v", err)
	}
	if err := w.Verify(); err != nil {
		t.Fatal(err)
	}
}

// The op log must record view-answered queries, ad-hoc queries with their
// clustering signature, and committed deltas.
func TestOpLogRecordsQueriesAndDeltas(t *testing.T) {
	w := newRetail(t)
	var events []OpEvent
	w.SetOpLog(func(ev OpEvent) { events = append(events, ev) })

	if _, err := w.Exec("SELECT month, TotalPrice FROM product_sales"); err != nil {
		t.Fatal(err)
	}
	adhoc := "SELECT time.year, SUM(price) AS total FROM sale, time WHERE sale.timeid = time.id GROUP BY time.year"
	if _, err := w.Exec(adhoc); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("INSERT INTO sale VALUES (81, 1, 100, 7, 4)"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec("UPDATE sale SET price = 5 WHERE id = 81"); err != nil {
		t.Fatal(err)
	}
	// A failing query must not be logged.
	if _, err := w.Exec("SELECT month FROM nosuch"); err == nil {
		t.Fatal("query over unknown table should fail")
	}

	if len(events) != 4 {
		t.Fatalf("want 4 events, got %d: %+v", len(events), events)
	}
	if ev := events[0]; ev.Kind != "query-view" || ev.View != "product_sales" {
		t.Fatalf("view query event wrong: %+v", ev)
	}
	if ev := events[1]; ev.Kind != "query-adhoc" ||
		!strings.Contains(ev.SQL, "GROUP BY time.year") ||
		len(ev.Tables) != 2 || len(ev.GroupBy) != 1 {
		t.Fatalf("ad-hoc query event wrong: %+v", ev)
	}
	if ev := events[2]; ev.Kind != "delta" || ev.Table != "sale" || ev.Rows != 1 {
		t.Fatalf("delta event wrong: %+v", ev)
	}
	// An update weighs two rows: the old image out, the new one in.
	if ev := events[3]; ev.Kind != "delta" || ev.Table != "sale" || ev.Rows != 2 {
		t.Fatalf("update delta event wrong: %+v", ev)
	}
	for _, ev := range events {
		if ev.Ns <= 0 {
			t.Fatalf("event missing latency: %+v", ev)
		}
	}
}
