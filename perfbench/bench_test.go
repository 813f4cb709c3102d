package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mindetail/internal/faultinject"
	"mindetail/internal/maintain"
	"mindetail/internal/pager"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
	"mindetail/internal/warehouse"
	"mindetail/internal/workload"
)

// The wrappers must present the same seams the program looks for on the
// values they wrap, or installing them would change what is measured.
var (
	_ warehouse.ChangeLog      = (*tracedLog)(nil)
	_ warehouse.BatchCommitter = (*tracedLog)(nil)
	_ maintain.AuxStore        = (*tracedStore)(nil)
)

func TestTracedStoreForwardsEveryMethod(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) *pager.Store {
		s, err := pager.Open(filepath.Join(dir, name), pager.Options{PageSize: 1024, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	tr := newTracer()
	tr.on.Store(true)
	st := &ioStats{}
	plain := open("plain")
	var wrapped maintain.AuxStore = &tracedStore{s: open("wrapped"), view: "v", t: tr, st: st}
	if _, ok := wrapped.(interface{ SetFaultHook(*faultinject.Hook) }); !ok {
		t.Fatal("tracedStore hides the store's fault-injection seam")
	}
	row := func(i int) tuple.Tuple { return tuple.Tuple{types.Int(int64(i)), types.Str("x")} }
	for i := 0; i < 200; i++ {
		k := []byte{byte(i), byte(i >> 8)}
		if err := plain.Put(k, row(i)); err != nil {
			t.Fatal(err)
		}
		if err := wrapped.Put(k, row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range []maintain.AuxStore{plain, wrapped} {
		if err := s.PutString("extra", row(-1)); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteString(string([]byte{7, 0})); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := wrapped.GetString("extra")
	want, wok, werr := plain.GetString("extra")
	if !reflect.DeepEqual(got, want) || ok != wok || (err == nil) != (werr == nil) {
		t.Fatalf("GetString: got %v %v %v, want %v %v %v", got, ok, err, want, wok, werr)
	}
	if g, _, _ := wrapped.Get([]byte{9, 0}); !reflect.DeepEqual(g, row(9)) {
		t.Fatalf("Get: got %v, want %v", g, row(9))
	}
	if wrapped.Len() != plain.Len() || wrapped.Bytes() != plain.Bytes() || wrapped.InPlace() != plain.InPlace() || wrapped.Err() != nil {
		t.Fatalf("Len/Bytes/InPlace/Err differ: %d/%d %d/%d", wrapped.Len(), plain.Len(), wrapped.Bytes(), plain.Bytes())
	}
	scan := func(s maintain.AuxStore) map[string]string {
		m := map[string]string{}
		if err := s.Scan(func(k string, r tuple.Tuple) error { m[k] = r.String(); return nil }); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if !reflect.DeepEqual(scan(wrapped), scan(plain)) {
		t.Fatal("Scan visits different rows")
	}
	if err := wrapped.Clear(0); err != nil || wrapped.Len() != 0 {
		t.Fatalf("Clear: %v, %d rows left", err, wrapped.Len())
	}
	if st.calls.Load() == 0 || tr.spans() != st.calls.Load() {
		t.Fatalf("%d calls timed, %d spans recorded", st.calls.Load(), tr.spans())
	}
	if err := wrapped.Close(); err != nil {
		t.Fatal(err)
	}
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
}

// applyAll builds a detached warehouse over a fresh copy of the retail
// star and applies the same seeded delta stream to it, traced or not, and
// returns the engines' exact counters.
func applyAll(t *testing.T, trace, paged bool) (maintain.Stats, pager.StoreStats) {
	p := workload.ScaledDown(4000)
	p.Seed = 7
	src, err := newRetailSource(p)
	if err != nil {
		t.Fatal(err)
	}
	views := []viewDef{
		{"product_sales", workload.ProductSalesSQL(p.SelectYear)},
		{"month_sales", workload.CSMASOnlySQL(p.SelectYear)},
	}
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var fac *pager.Factory
	var install func(*warehouse.Warehouse) error
	if paged {
		install = func(w *warehouse.Warehouse) error {
			f, err := pager.NewFactory(t.TempDir(), pager.Options{PageSize: 1024, PoolPages: 16})
			if err != nil {
				return err
			}
			fac = f
			return w.SetAuxStoreFactory(storeFactory(f, tr, &ioStats{}))
		}
	}
	w, _, err := buildDetached(src, views, install)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := workload.NewMutator(src, p).Batch(300, workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	r := &inproc{w: w, views: names(views), t: tr, ring: w.ObsRegistry().Trace("maintain.applies")}
	if tr != nil {
		tr.on.Store(true)
	}
	for _, d := range ds {
		if trace {
			_, err = r.tracedApply(d)
		} else {
			err = w.ApplyDelta(d)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := checkViews(w, r.views, src); err != nil {
		t.Fatal(err)
	}
	var pool pager.StoreStats
	if fac != nil {
		pool = poolTotals(fac)
		if err := closePaged(w, fac); err != nil {
			t.Fatal(err)
		}
	}
	return engineStats(w, r.views), pool
}

func TestTracingKeepsMaintenanceCounts(t *testing.T) {
	for _, paged := range []bool{false, true} {
		plain, plainPool := applyAll(t, false, paged)
		traced, tracedPool := applyAll(t, true, paged)
		if plain != traced {
			t.Errorf("paged=%v: maintain counts differ: untraced %+v, traced %+v", paged, plain, traced)
		}
		if plainPool != tracedPool {
			t.Errorf("paged=%v: pager counts differ: untraced %+v, traced %+v", paged, plainPool, tracedPool)
		}
	}
}

// TestTracingKeepsGroupCommit compares the program's own deltas-per-fsync
// (its wal.groupcommit.batch histogram) over APPLY-only closed loops with the
// change log wrapped and traced and without the wrapper.
func TestTracingKeepsGroupCommit(t *testing.T) {
	perFsync := func(trace bool) []float64 {
		r := &serveRun{cfg: config{seed: 3, dir: t.TempDir()}, rep: newReport(), p: serveParams(3)}
		src, err := newRetailSource(r.p)
		if err != nil {
			t.Fatal(err)
		}
		r.csv = retailCSV(src)
		r.nextSale.Store(int64(src.Table("sale").Len()))
		if trace {
			r.t, r.wire, r.wal = newTracer(), &wireStats{}, &walStats{}
		}
		if _, err := r.setup(filepath.Join(r.cfg.dir, "wal")); err != nil {
			t.Fatal(err)
		}
		defer r.s.close()
		if trace {
			r.t.on.Store(true)
		}
		h := r.s.w.ObsRegistry().Histogram("wal.groupcommit.batch")
		var out []float64
		for k := 0; k < 5; k++ {
			before := h.Snapshot()
			if _, _, _, err := r.closedLoop(300*time.Millisecond, 0, 0); err != nil {
				t.Fatal(err)
			}
			after := h.Snapshot()
			out = append(out, ratio(float64(after.SumNs-before.SumNs), float64(after.Count-before.Count)))
		}
		if trace && r.wal.fsyncs.Load() == 0 {
			t.Fatal("the traced run recorded no commits")
		}
		return out
	}
	plain, traced := perFsync(false), perFsync(true)
	pq, tq := quartiles(plain), quartiles(traced)
	if pq[1] <= 1 || tq[1] <= 1 {
		t.Fatalf("group commit is not batching: untraced %v, traced %v deltas per fsync", plain, traced)
	}
	// Equal within the spread: the traced median must fall inside the
	// untraced windows' quartiles widened by half their median.
	lo, hi := pq[0]-pq[1]/2, pq[2]+pq[1]/2
	if tq[1] < lo || tq[1] > hi {
		t.Fatalf("traced deltas per fsync %v (median %.1f) outside the untraced spread %v", traced, tq[1], plain)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func TestUnionMergesOverlaps(t *testing.T) {
	ss := []span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 25}, {Start: 21, End: 22}}
	if got := union(ss); got != 20 {
		t.Fatalf("union = %d, want 20", got)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		cfg   config
		trace int
	}{
		{config{workload: "bogus", seconds: 1}, 0},
		{config{workload: "maintain", seconds: 1}, 2},
		{config{workload: "maintain", seconds: 0}, 0},
	} {
		tc.cfg.outDir = t.TempDir()
		if err := run(tc.cfg, tc.trace); err == nil {
			t.Errorf("run(%+v, %d) accepted bad flags", tc.cfg, tc.trace)
		}
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(defs), len(got))
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}
