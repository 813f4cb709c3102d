package warehouse

import (
	"bytes"
	"sort"
	"testing"

	"mindetail/internal/workload"
)

// TestSameSeedBuildsAreByteIdentical builds two warehouses independently
// from one seed, feeds both the same DefaultMix delta stream, and requires
// byte-identical Query results. Scoped recomputation re-sums float SUMs in
// auxiliary index posting order, so this fails whenever posting order comes
// from Go map iteration instead of the tables' contents.
func TestSameSeedBuildsAreByteIdentical(t *testing.T) {
	p := workload.ScaledDown(4000)
	p.Seed = 7
	views := map[string]string{
		"product_sales":  workload.ProductSalesSQL(p.SelectYear),
		"month_sales":    workload.CSMASOnlySQL(p.SelectYear),
		"product_totals": workload.EliminationSQL(),
	}
	build := func() *Warehouse {
		w := New()
		if _, err := w.Exec(workload.DDL()); err != nil {
			t.Fatal(err)
		}
		if err := workload.Load(w.Source(), p); err != nil {
			t.Fatal(err)
		}
		for name, sql := range views {
			if _, err := w.Exec("CREATE MATERIALIZED VIEW " + name + " AS " + sql); err != nil {
				t.Fatal(err)
			}
		}
		w.DetachSources()
		return w
	}
	a, b := build(), build()

	gen := New()
	if _, err := gen.Exec(workload.DDL()); err != nil {
		t.Fatal(err)
	}
	if err := workload.Load(gen.Source(), p); err != nil {
		t.Fatal(err)
	}
	deltas, err := workload.NewMutator(gen.Source(), p).Batch(300, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if err := a.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if err := b.ApplyDelta(d); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	// tuple.Key is the exact binary encoding, so equal keys mean equal bits.
	encode := func(w *Warehouse, view string) []byte {
		rel, err := w.Query(view)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(rel.Rows))
		for i, row := range rel.Rows {
			keys[i] = row.Key()
		}
		sort.Strings(keys)
		var out bytes.Buffer
		for _, k := range keys {
			out.WriteString(k)
			out.WriteByte('\n')
		}
		return out.Bytes()
	}
	for view := range views {
		if ea, eb := encode(a, view), encode(b, view); !bytes.Equal(ea, eb) {
			t.Errorf("%s: two same-seed builds diverged after %d deltas", view, len(deltas))
		}
	}
}
