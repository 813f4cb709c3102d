package maintain

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// detailCtx is a relation of (possibly partial) view detail rows together
// with the positions that let component evaluation account for compressed
// duplicates: mPos is the column holding the root auxiliary view's COUNT(*)
// (-1 when rows are uncompressed base rows), and sumPos maps a compressed
// root attribute "table.attr" to the column holding its SUM.
type detailCtx struct {
	rel    *ra.Relation
	mPos   int
	sumPos map[string]int
	// minPos and maxPos map an append-only-compressed root attribute
	// "table.attr" to its MIN/MAX column.
	minPos map[string]int
	maxPos map[string]int
}

// newDetailCtx returns an empty context with initialized position maps.
func newDetailCtx() detailCtx {
	return detailCtx{
		mPos:   -1,
		sumPos: make(map[string]int),
		minPos: make(map[string]int),
		maxPos: make(map[string]int),
	}
}

// groupSet maps encoded group keys to their decoded group-by values. The
// values let the delta-scoped recomputation path probe auxiliary indexes
// with the groups' own key attributes instead of re-joining everything.
type groupSet map[string][]types.Value

// tablesFor computes the set of tables a delta on t must join with:
// owners of group-by attributes and aggregate arguments (to adjust or
// locate groups), every filtering table (to decide view membership), the
// root (for duplicate multiplicities), all closed under tree paths from t.
// With UseNeedSets disabled, every referenced table joins.
func (e *Engine) tablesFor(t string) map[string]bool {
	needed := map[string]bool{t: true}
	if !e.UseNeedSets {
		for _, u := range e.view.Tables {
			needed[u] = true
		}
		return needed
	}
	for _, a := range e.view.GroupBy() {
		needed[a.Table] = true
	}
	for _, agg := range e.view.Aggregates() {
		if agg.Arg != nil {
			needed[agg.Arg.(ra.ColRef).Table] = true
		}
	}
	for u, f := range e.filtering {
		if f {
			needed[u] = true
		}
	}
	if t != e.graph.Root {
		needed[e.graph.Root] = true
	}
	// Close under tree paths from t: joining u requires every table on the
	// t–u path.
	anc := func(x string) []string {
		path := []string{x}
		for x != e.graph.Root {
			x = e.graph.Parent[x]
			path = append(path, x)
		}
		return path
	}
	tPath := anc(t)
	onTPath := make(map[string]int)
	for i, x := range tPath {
		onTPath[x] = i
	}
	closed := map[string]bool{}
	for u := range needed {
		uPath := anc(u) // u ... root
		// Find the first vertex of uPath that lies on tPath: the LCA.
		lca := -1
		for i, x := range uPath {
			if _, ok := onTPath[x]; ok {
				lca = i
				break
			}
		}
		for i := 0; i <= lca; i++ {
			closed[uPath[i]] = true
		}
		for i := 0; i <= onTPath[uPath[lca]]; i++ {
			closed[tPath[i]] = true
		}
	}
	return closed
}

// deltaDetail joins the signed delta rows of table t with the auxiliary
// tables of every needed table, producing weighted detail rows: each output
// row's weight is the signed number of underlying base detail rows it
// stands for (the root COUNT(*) multiplies in when climbing through a
// compressed root view).
func (e *Engine) deltaDetail(t string, signed []signedRow) (detailCtx, []int64, error) {
	p, err := e.deltaPlan(t)
	if err != nil {
		return detailCtx{}, nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	if e.shardable(len(signed)) {
		return e.deltaDetailChunked(t, p, signed)
	}
	fw := &e.walker
	fw.probes = 0
	var out detailRows
	err = fw.walkSigned(p, signed, &out)
	e.stats.auxLookups.Add(fw.probes)
	if err != nil {
		return detailCtx{}, nil, fmt.Errorf("maintain: delta on %s: %w", t, err)
	}
	return p.detail(out.rows), out.weights, nil
}

// fullAuxDetail joins all auxiliary views into the full view detail — the
// input to partial recomputation. It requires the root auxiliary view and
// re-applies every residual condition. The tree is joined breadth-first
// with index-lookup joins probing each auxiliary table's maintained hash
// index, so no per-evaluation hash tables are built.
func (e *Engine) fullAuxDetail() (detailCtx, error) {
	root := e.aux[e.graph.Root]
	if root == nil {
		return detailCtx{}, fmt.Errorf("maintain: root auxiliary view of %s omitted; cannot recompute", e.graph.Root)
	}
	var node ra.Node = ra.Scan(root.def.Name, root.Relation())
	var joins []*ra.IndexedJoinNode
	queue := append([]string(nil), e.graph.Children[e.graph.Root]...)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		at := e.aux[t]
		if at == nil {
			return detailCtx{}, fmt.Errorf("maintain: missing auxiliary view for %s", t)
		}
		j := e.graph.EdgeTo[t]
		if err := at.EnsureIndex(j.RightAttr); err != nil {
			return detailCtx{}, err
		}
		// The probeView adapter gives IndexedJoin private probe scratch, so
		// several engines can evaluate recomputation joins over the same
		// shared tables concurrently.
		ij := ra.IndexedJoin(node, ra.Col{Table: j.Left, Name: j.LeftAttr}, &probeView{at: at}, j.RightAttr, at.def.Name)
		joins = append(joins, ij)
		node = ij
		queue = append(queue, e.graph.Children[t]...)
	}
	var allResidual []ra.Comparison
	for _, conds := range e.residual {
		allResidual = append(allResidual, conds...)
	}
	if len(allResidual) > 0 {
		node = ra.Select(node, allResidual...)
	}
	rel, err := node.Eval()
	if err != nil {
		return detailCtx{}, err
	}
	for _, ij := range joins {
		e.stats.auxLookups.Add(int64(ij.Probes))
		ij.Probes = 0
	}
	ctx := newDetailCtx()
	ctx.rel = rel
	if root.cntPos >= 0 {
		i, err := rel.Cols.Index(root.def.Base, root.def.CountName)
		if err != nil {
			return detailCtx{}, err
		}
		ctx.mPos = i
	}
	for a := range root.sumPos {
		i, err := rel.Cols.Index(root.def.Base, root.def.SumName[a])
		if err != nil {
			return detailCtx{}, err
		}
		ctx.sumPos[root.def.Base+"."+a] = i
	}
	for a := range root.minPos {
		i, err := rel.Cols.Index(root.def.Base, root.def.MinName[a])
		if err != nil {
			return detailCtx{}, err
		}
		ctx.minPos[root.def.Base+"."+a] = i
	}
	for a := range root.maxPos {
		i, err := rel.Cols.Index(root.def.Base, root.def.MaxName[a])
		if err != nil {
			return detailCtx{}, err
		}
		ctx.maxPos[root.def.Base+"."+a] = i
	}
	return ctx, nil
}

// gbFns binds the view's group-by expressions against a detail schema. The
// returned closures are stateless and safe for concurrent use.
func (e *Engine) gbFns(cols ra.Schema) ([]func(tuple.Tuple) (types.Value, error), error) {
	fns := make([]func(tuple.Tuple) (types.Value, error), 0, len(e.mv.gbIdx))
	for _, ci := range e.mv.gbIdx {
		f, err := e.mv.comps[ci].item.Expr.Bind(cols)
		if err != nil {
			return nil, err
		}
		fns = append(fns, f)
	}
	return fns, nil
}

// sumArg resolves where a SUM component's argument lives in a detail
// schema: either the compressed SUM column (value contributes directly,
// scaled by sign only) or the raw attribute (scaled by the signed weight).
type sumArg struct {
	compressed bool
	pos        int
}

func (e *Engine) bindSumArgs(ctx detailCtx) (map[int]sumArg, error) {
	out := make(map[int]sumArg)
	for ci, c := range e.mv.comps {
		if c.kind != compSum {
			continue
		}
		if p, ok := ctx.sumPos[c.arg.Table+"."+c.arg.Name]; ok {
			out[ci] = sumArg{compressed: true, pos: p}
			continue
		}
		p, err := ctx.rel.Cols.Index(c.arg.Table, c.arg.Name)
		if err != nil {
			return nil, err
		}
		out[ci] = sumArg{pos: p}
	}
	return out, nil
}

// storedArgPos resolves where a stored (non-CSMAS) component's argument
// lives in a detail schema: the raw attribute when present, otherwise the
// append-only-compressed MIN/MAX column of the same attribute.
func storedArgPos(ctx detailCtx, c component) (int, error) {
	if p, err := ctx.rel.Cols.Index(c.arg.Table, c.arg.Name); err == nil {
		return p, nil
	}
	key := c.arg.Table + "." + c.arg.Name
	if c.item.Agg.Func == ra.FuncMin && !c.item.Agg.Distinct {
		if p, ok := ctx.minPos[key]; ok {
			return p, nil
		}
	}
	if c.item.Agg.Func == ra.FuncMax && !c.item.Agg.Distinct {
		if p, ok := ctx.maxPos[key]; ok {
			return p, nil
		}
	}
	_, err := ctx.rel.Cols.Index(c.arg.Table, c.arg.Name)
	return -1, err
}

// adjustFromDetail applies incremental CSMAS adjustments for each weighted
// detail row; with raise set, stored MIN/MAX components absorb the
// insertion batch (the SMA insertion fast path). Group keys are encoded
// into a reused scratch buffer, and the per-row sum-delta map is cleared
// and reused, so the steady-state loop allocates only on group creation.
func (e *Engine) adjustFromDetail(ctx detailCtx, weights []int64, raise bool) error {
	if e.shardable(len(ctx.rel.Rows)) && !e.mv.global() {
		return e.adjustFromDetailSharded(ctx, weights, raise)
	}
	fns, err := e.gbFns(ctx.rel.Cols)
	if err != nil {
		return err
	}
	sums, err := e.bindSumArgs(ctx)
	if err != nil {
		return err
	}
	type storedBind struct {
		comp int
		pos  int
	}
	var stored []storedBind
	if raise {
		for ci, c := range e.mv.comps {
			if c.kind != compStored {
				continue
			}
			p, err := storedArgPos(ctx, c)
			if err != nil {
				return err
			}
			stored = append(stored, storedBind{comp: ci, pos: p})
		}
	}
	gbVals := make([]types.Value, len(fns))
	sumDeltas := make(map[int]types.Value, len(sums))
	var adjusts int64
	defer func() { e.stats.groupAdjusts.Add(adjusts) }()
	buf := e.keyBuf[:0]
	for i, row := range ctx.rel.Rows {
		w := weights[i]
		buf = buf[:0]
		for gi, f := range fns {
			v, err := f(row)
			if err != nil {
				return err
			}
			gbVals[gi] = v
			buf = types.Encode(buf, v)
		}
		clear(sumDeltas)
		for ci, sa := range sums {
			var d types.Value
			if sa.compressed {
				v := row[sa.pos]
				sign := int64(1)
				if w < 0 {
					sign = -1
				}
				d, err = types.Mul(types.Int(sign), v)
			} else {
				d, err = types.Mul(types.Int(w), row[sa.pos])
			}
			if err != nil {
				return err
			}
			sumDeltas[ci] = d
		}
		if err := e.fi.Fire(faultinject.MVAdjustRow); err != nil {
			return err
		}
		e.jnl.noteMV(e.mv, buf)
		if err := e.mv.adjustBuf(buf, gbVals, w, sumDeltas); err != nil {
			return err
		}
		adjusts++
		for _, sb := range stored {
			e.mv.raiseExtremaBuf(buf, sb.comp, row[sb.pos])
		}
	}
	e.keyBuf = buf[:0]
	return nil
}

// affectedGroups returns the groups the detail rows touch: encoded key and
// decoded group-by values (the seed values of the scoped recomputation).
func (e *Engine) affectedGroups(ctx detailCtx) (groupSet, error) {
	fns, err := e.gbFns(ctx.rel.Cols)
	if err != nil {
		return nil, err
	}
	keys := make(groupSet)
	vals := make([]types.Value, len(fns))
	buf := e.keyBuf[:0]
	for _, row := range ctx.rel.Rows {
		buf = buf[:0]
		for i, f := range fns {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			vals[i] = v
			buf = types.Encode(buf, v)
		}
		if _, ok := keys[string(buf)]; !ok {
			keys[string(buf)] = append([]types.Value(nil), vals...)
		}
	}
	e.keyBuf = buf[:0]
	return keys, nil
}

// recomputeGroups repairs the given groups from the auxiliary views alone
// (Section 3.2's recomputation of non-CSMAS aggregates): the affected
// groups' detail rows are re-aggregated — streamed from the delta-scoped
// fold walk when the view's shape admits it, from the full auxiliary join
// otherwise — replacing the stored groups.
func (e *Engine) recomputeGroups(keys groupSet) error {
	if len(keys) == 0 {
		return nil
	}
	groups, shared, err := e.recomputedGroups(keys)
	if err != nil {
		return err
	}
	// Journal every affected group before the delete+reinstall below: the
	// replacements are a subset of keys (the accumulator filters by exact
	// group key), so capturing the keys covers all mutations.
	for k := range keys {
		e.jnl.noteMVKey(e.mv, k)
	}
	e.mv.deleteGroups(keys)
	if err := e.fi.Fire(faultinject.RecomputeInstall); err != nil {
		return err
	}
	for _, row := range groups {
		if shared {
			// Memoized rows are consumed by several engines and mutated in
			// place once installed (adjustments, rollback restore); install a
			// private copy and leave the memo's pristine.
			row = row.Clone()
		}
		e.mv.setRow(row)
	}
	e.stats.groupRecomputes.Add(int64(len(groups)))
	if e.mv.global() && len(groups) == 0 {
		e.mv.setRow(e.mv.blank(nil))
	}
	return nil
}

// parallelRecomputeThreshold is the detail-row count below which group
// recomputation stays serial: small deltas must not pay goroutine and
// sharding overhead.
const parallelRecomputeThreshold = 4096

// workerCount resolves the recomputation worker-pool size.
func (e *Engine) workerCount() int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > 16 {
		w = 16
	}
	return w
}

// storedDef binds one stored (non-CSMAS) component to its detail position.
type storedDef struct {
	comp int
	pos  int
	agg  *ra.Aggregate
}

// groupBinding is the view's aggregation bound over one detail schema: the
// group-by closures, where each SUM component's argument lives (indexed by
// component; zero for other kinds), each stored component's argument, and
// the multiplicity column. It is read-only once built, so concurrent
// accumulators may share it.
type groupBinding struct {
	fns     []func(tuple.Tuple) (types.Value, error)
	sums    []sumArg
	storeds []storedDef
	mPos    int
}

// bindGroups binds the view's aggregation over a detail context's schema.
func (e *Engine) bindGroups(ctx detailCtx) (*groupBinding, error) {
	fns, err := e.gbFns(ctx.rel.Cols)
	if err != nil {
		return nil, err
	}
	sums, err := e.bindSumArgs(ctx)
	if err != nil {
		return nil, err
	}
	b := &groupBinding{fns: fns, sums: make([]sumArg, len(e.mv.comps)), mPos: ctx.mPos}
	for ci, sa := range sums {
		b.sums[ci] = sa
	}
	for ci, c := range e.mv.comps {
		if c.kind != compStored {
			continue
		}
		p, err := storedArgPos(ctx, c)
		if err != nil {
			return nil, err
		}
		b.storeds = append(b.storeds, storedDef{comp: ci, pos: p, agg: c.item.Agg})
	}
	return b, nil
}

// computeGroups aggregates detail rows into maintenance-form component
// rows. With keys non-nil, only groups in the set are produced. Large
// inputs are sharded by group-key hash across a bounded worker pool: every
// row of a group lands in the same shard with its original relative order
// preserved, so parallel aggregation accumulates each group exactly as the
// serial path would.
func (e *Engine) computeGroups(ctx detailCtx, keys groupSet) (map[string]tuple.Tuple, error) {
	b, err := e.bindGroups(ctx)
	if err != nil {
		return nil, err
	}
	rows := ctx.rel.Rows
	workers := e.workerCount()
	if workers <= 1 || len(rows) < parallelRecomputeThreshold {
		return e.aggregateGroups(b, rows, keys)
	}

	// Shard by group-key hash; the keys filter applies here so workers
	// only see relevant rows.
	shards := make([][]tuple.Tuple, workers)
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, f := range b.fns {
			v, err := f(row)
			if err != nil {
				return nil, err
			}
			buf = types.Encode(buf, v)
		}
		if keys != nil {
			if _, ok := keys[string(buf)]; !ok {
				continue
			}
		}
		w := int(fnv32(buf) % uint32(workers))
		shards[w] = append(shards[w], row)
	}
	outs := make([]map[string]tuple.Tuple, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		if len(shards[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = e.aggregateGroups(b, shards[w], nil)
		}(w)
	}
	wg.Wait()
	merged := make(map[string]tuple.Tuple)
	for w := range outs {
		if errs[w] != nil {
			return nil, errs[w]
		}
		for k, row := range outs[w] {
			merged[k] = row
		}
	}
	return merged, nil
}

// aggregateGroups runs the aggregation loop over one materialized row set.
func (e *Engine) aggregateGroups(b *groupBinding, rows []tuple.Tuple, keys groupSet) (map[string]tuple.Tuple, error) {
	acc := e.newGroupAcc(b, keys)
	for _, row := range rows {
		if err := acc.add(row, 0); err != nil {
			return nil, err
		}
	}
	return acc.finish()
}

// groupAcc is the aggregation loop split open: add folds one detail row
// into its group's component row, and finish settles the stored (non-CSMAS)
// components. computeGroups drives it over a materialized relation; the
// scoped recomputation feeds it straight from the fold walk (it is a
// foldSink). It uses only its own state plus read-only engine metadata, so
// several accumulators may run concurrently (the parallel recomputation
// workers).
type groupAcc struct {
	mv     *MaterializedView
	b      *groupBinding
	keys   groupSet
	out    map[string]tuple.Tuple
	accs   []storedAcc
	gbVals []types.Value
	buf    []byte
	vbuf   []byte
}

// storedAcc is one stored component's per-group running state.
type storedAcc struct {
	extremum map[string]types.Value            // group key -> MIN/MAX value
	distinct map[string]map[string]types.Value // group key -> set
}

// newGroupAcc returns an empty accumulator; with keys non-nil, rows of
// groups outside the set are skipped.
func (e *Engine) newGroupAcc(b *groupBinding, keys groupSet) *groupAcc {
	a := &groupAcc{
		mv:     e.mv,
		b:      b,
		keys:   keys,
		out:    make(map[string]tuple.Tuple),
		accs:   make([]storedAcc, len(b.storeds)),
		gbVals: make([]types.Value, len(b.fns)),
	}
	for i := range a.accs {
		a.accs[i] = storedAcc{
			extremum: make(map[string]types.Value),
			distinct: make(map[string]map[string]types.Value),
		}
	}
	return a
}

// add folds one detail row into its group. The row's weight is unused: a
// recomputation counts base detail rows through the multiplicity column.
// The row is only read, so add can take the fold walker's reused buffer.
func (a *groupAcc) add(row tuple.Tuple, _ int64) error {
	buf := a.buf[:0]
	for i, f := range a.b.fns {
		v, err := f(row)
		if err != nil {
			return err
		}
		a.gbVals[i] = v
		buf = types.Encode(buf, v)
	}
	a.buf = buf
	if a.keys != nil {
		if _, ok := a.keys[string(buf)]; !ok {
			return nil
		}
	}
	m := int64(1)
	if a.b.mPos >= 0 {
		m = row[a.b.mPos].AsInt()
	}
	orow, ok := a.out[string(buf)]
	if !ok {
		orow = a.mv.blank(a.gbVals)
		a.out[string(buf)] = orow
	}
	for ci, c := range a.mv.comps {
		switch c.kind {
		case compCount:
			orow[ci] = types.Int(orow[ci].AsInt() + m)
		case compSum:
			sa := a.b.sums[ci]
			var d types.Value
			if sa.compressed {
				d = row[sa.pos]
			} else {
				var err error
				d, err = types.Mul(types.Int(m), row[sa.pos])
				if err != nil {
					return err
				}
			}
			if orow[ci].IsNull() {
				orow[ci] = d
			} else {
				s, err := types.Add(orow[ci], d)
				if err != nil {
					return err
				}
				orow[ci] = s
			}
		}
	}
	h := a.mv.hiddenIdx()
	orow[h] = types.Int(orow[h].AsInt() + m)

	for i := range a.b.storeds {
		sd := &a.b.storeds[i]
		ac := &a.accs[i]
		v := row[sd.pos]
		if sd.agg.Distinct {
			set, ok := ac.distinct[string(buf)]
			if !ok {
				set = make(map[string]types.Value)
				ac.distinct[string(buf)] = set
			}
			a.vbuf = types.Encode(a.vbuf[:0], v)
			if _, ok := set[string(a.vbuf)]; !ok {
				set[string(a.vbuf)] = v
			}
			continue
		}
		cur, ok := ac.extremum[string(buf)]
		switch {
		case !ok:
			ac.extremum[string(buf)] = v
		case sd.agg.Func == ra.FuncMin && types.Compare(v, cur) < 0:
			ac.extremum[string(buf)] = v
		case sd.agg.Func == ra.FuncMax && types.Compare(v, cur) > 0:
			ac.extremum[string(buf)] = v
		}
	}
	return nil
}

// finish settles the stored components and returns the component rows by
// encoded group key.
func (a *groupAcc) finish() (map[string]tuple.Tuple, error) {
	for i := range a.b.storeds {
		sd := &a.b.storeds[i]
		ac := &a.accs[i]
		for key, orow := range a.out {
			if sd.agg.Distinct {
				v, err := finalizeDistinct(sd.agg, ac.distinct[key])
				if err != nil {
					return nil, err
				}
				orow[sd.comp] = v
			} else if v, ok := ac.extremum[key]; ok {
				orow[sd.comp] = v
			}
		}
	}
	return a.out, nil
}

// fnv32 is the FNV-1a hash of b, used to shard rows by group key.
func fnv32(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// finalizeDistinct computes a DISTINCT aggregate over a value set keyed by
// each value's encoding. SUM and AVG add the values in encoded-key order,
// so a float result is a function of the set alone, not of map iteration.
func finalizeDistinct(agg *ra.Aggregate, set map[string]types.Value) (types.Value, error) {
	switch agg.Func {
	case ra.FuncCount:
		return types.Int(int64(len(set))), nil
	case ra.FuncSum, ra.FuncAvg:
		if len(set) == 0 {
			return types.Null, nil
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sum := types.Value(types.Int(0))
		for _, k := range keys {
			s, err := types.Add(sum, set[k])
			if err != nil {
				return types.Null, err
			}
			sum = s
		}
		if agg.Func == ra.FuncSum {
			return sum, nil
		}
		return types.Float(sum.AsFloat() / float64(len(set))), nil
	case ra.FuncMin, ra.FuncMax:
		// MIN/MAX(DISTINCT a) ≡ MIN/MAX(a); handled via extremum normally,
		// but DISTINCT forces the set path.
		var best types.Value = types.Null
		for _, v := range set {
			if best.IsNull() ||
				(agg.Func == ra.FuncMin && types.Compare(v, best) < 0) ||
				(agg.Func == ra.FuncMax && types.Compare(v, best) > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return types.Null, fmt.Errorf("maintain: unsupported DISTINCT aggregate %s", agg)
	}
}
