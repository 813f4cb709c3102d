package maintain

import (
	"sort"
	"strings"
	"testing"

	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// TestStrategyEquivalence: the result of maintenance must not depend on
// the path a delta takes. One stream — exercising the recompute path
// (COUNT DISTINCT), CSMAS adjustments, and a dimension update — runs
// through three twin engines: the default policy, the ForceFullRecompute
// oracle, and a sharded engine whose ShardMinRows of 1 engages the overlay
// pipeline on every delta, far below the default threshold. Each twin is
// checked against brute-force recomputation after every delta, and the
// twins must agree with each other byte for byte.
func TestStrategyEquivalence(t *testing.T) {
	twins := []struct {
		name      string
		configure func(e *Engine)
	}{
		{"auto", func(*Engine) {}},
		{"full", func(e *Engine) { e.ForceFullRecompute = true }},
		{"sharded", func(e *Engine) { e.Shards, e.ShardMinRows = 4, 1 }},
	}
	var runs [][]string // per twin: the canonical view after each delta
	for _, tw := range twins {
		t.Run(tw.name, func(t *testing.T) {
			f := newFixture(t, retailDDL, `SELECT time.month, SUM(price) AS total,
				COUNT(*) AS cnt, COUNT(DISTINCT brand) AS brands
				FROM sale, time, product
				WHERE time.year = 1997 AND sale.timeid = time.id AND sale.productid = product.id
				GROUP BY time.month`, true)
			tw.configure(f.engine)
			f.seedRetail()
			f.initEngine()
			var views []string
			step := func(d Delta) {
				t.Helper()
				f.apply(d)
				views = append(views, canonicalSnapshot(f.engine))
			}
			f.saleID++
			row := tuple.Tuple{types.Int(f.saleID), types.Int(2), types.Int(102), types.Int(7), types.Float(3)}
			if err := f.db.Insert("sale", row); err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
			del, err := f.db.Delete("sale", types.Int(2))
			if err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Deletes: []tuple.Tuple{del}})
			old, upd, err := f.db.Update("sale", types.Int(3), map[string]types.Value{"price": types.Float(42)})
			if err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}})
			old, upd, err = f.db.Update("product", types.Int(100), map[string]types.Value{"brand": types.Str("zenc")})
			if err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "product", Updates: []Update{{Old: old, New: upd}}})
			runs = append(runs, views)
		})
	}
	if t.Failed() {
		return
	}
	for i := 1; i < len(runs); i++ {
		for j := range runs[0] {
			if runs[i][j] != runs[0][j] {
				t.Fatalf("after delta %d the %s twin diverged from %s\n%s:\n%s\n%s:\n%s",
					j, twins[i].name, twins[0].name, twins[i].name, runs[i][j], twins[0].name, runs[0][j])
			}
		}
	}
}

// canonicalSnapshot renders an engine's view rows in a deterministic order,
// so two replicas can be compared for bit-identical contents.
func canonicalSnapshot(e *Engine) string {
	rel := e.Snapshot()
	lines := make([]string, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		lines = append(lines, r.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSharedEnginesStrategyDecidedOncePerDelta: replica engines of one
// SharedEngines class (identical views over one set of shared tables) must
// stay bit-identical to each other after every delta, with the cross-view
// memo on and off — scoped and full recomputation can differ in float
// accumulation order, so replicas must never be split across paths.
func TestSharedEnginesStrategyDecidedOncePerDelta(t *testing.T) {
	for _, disableMemo := range []bool{false, true} {
		name := "memo"
		if disableMemo {
			name = "no-memo"
		}
		t.Run(name, func(t *testing.T) {
			distinct := `SELECT time.month, COUNT(DISTINCT brand) AS brands, SUM(price) AS total
				FROM sale, time, product
				WHERE sale.timeid = time.id AND sale.productid = product.id
				GROUP BY time.month`
			// Two identical views: replicas of one class.
			f := newSharedFixture(t, distinct, distinct)
			f.se.DisableMemo = disableMemo
			f.seedRetail()
			f.init()

			step := func(d Delta) {
				t.Helper()
				f.apply(d)
				if a, b := canonicalSnapshot(f.se.Engine(0)), canonicalSnapshot(f.se.Engine(1)); a != b {
					t.Fatalf("replica views diverged\nengine0:\n%s\nengine1:\n%s", a, b)
				}
			}

			f.saleID++
			row := tuple.Tuple{types.Int(f.saleID), types.Int(3), types.Int(101), types.Int(8), types.Float(21)}
			if err := f.db.Insert("sale", row); err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Inserts: []tuple.Tuple{row}})
			del, err := f.db.Delete("sale", types.Int(4))
			if err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Deletes: []tuple.Tuple{del}})
			old, upd, err := f.db.Update("sale", types.Int(5), map[string]types.Value{"price": types.Float(7)})
			if err != nil {
				t.Fatal(err)
			}
			step(Delta{Table: "sale", Updates: []Update{{Old: old, New: upd}}})
		})
	}
}

// TestStrategyInMemoKey: engines recomputing along different paths must not
// share memoized results, so the ForceFullRecompute oracle knob is part of
// the memo key.
func TestStrategyInMemoKey(t *testing.T) {
	f := newFixture(t, retailDDL, productSalesSQL, true)
	scoped := f.engine.buildMemoKey()
	f.engine.ForceFullRecompute = true
	if full := f.engine.buildMemoKey(); full == scoped {
		t.Fatalf("scoped and full recomputation share memo key %q", scoped)
	}
}
