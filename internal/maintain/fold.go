package maintain

import (
	"fmt"
	"sort"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// The outward join over the extended join graph, compiled and streamed.
//
// Both maintenance paths that reach detail rows through the auxiliary
// views walk one compiled fold plan: the delta-detail join seeds the walk
// with a delta's signed base rows, and the delta-scoped recomputation with
// the affected groups' rows of their seed auxiliary view. The walk is a
// depth-first index-nested-loop join: each fold level probes one auxiliary
// table's hash index with a column of the partial row, copies the match
// into one reused row buffer, and descends. A completed row goes straight
// to a sink — the recomputation's group accumulator, or a collector that
// copies it out for the delta path — so no intermediate row is ever
// materialized.
//
// Row-order invariant: levels fold in sorted child order and each level
// visits its matches in index posting order, so joined rows arrive in the
// lexicographic (seed row, level-1 match, level-2 match, ...) order a
// breadth-first fold of the same steps would produce. Per-group float
// accumulation therefore depends only on the seed order and the posting
// lists, both functions of the table contents (see AuxTable.EnsureIndex).

// foldStep is one compiled level of the outward join: probe at's index on
// attr with the value in column probe of the partial row, and copy each
// match into the columns starting at base.
type foldStep struct {
	at    *AuxTable
	attr  string
	probe int
	base  int
	// down marks a join-down edge (the folded parent references the child's
	// key): at most one match, and no match drops the row. An up edge fans
	// out; cnt, when >= 0, is the compressed parent's COUNT(*) column within
	// a match, which multiplies into the row's weight.
	down bool
	cnt  int
	// residual is the view's unenforced local conditions on the joined
	// table (shared-plan mode), bound over the joined prefix; nil if none.
	residual func(tuple.Tuple) (bool, error)
}

// foldPlan is the outward join from one seed table, compiled once per
// engine and seed: the fold levels, the joined schema with the positions
// of the compressed root's COUNT/SUM/MIN/MAX columns (ctx, whose relation
// holds no rows), and the Need-set setting it was compiled under.
type foldPlan struct {
	steps    []foldStep
	ctx      detailCtx
	needSets bool
}

// width returns the joined row width.
func (p *foldPlan) width() int { return len(p.ctx.rel.Cols) }

// detail wraps joined rows in a context sharing the plan's positions.
func (p *foldPlan) detail(rows []tuple.Tuple) detailCtx {
	ctx := p.ctx
	ctx.rel = &ra.Relation{Cols: p.ctx.rel.Cols, Rows: rows}
	return ctx
}

// place records where a joined auxiliary table's compressed columns land in
// the joined schema (a no-op for a PSJ table, which has none).
func (c *detailCtx) place(table string, at *AuxTable, base int) {
	if at.cntPos >= 0 {
		c.mPos = base + at.cntPos
	}
	for a, p := range at.sumPos {
		c.sumPos[table+"."+a] = base + p
	}
	for a, p := range at.minPos {
		c.minPos[table+"."+a] = base + p
	}
	for a, p := range at.maxPos {
		c.maxPos[table+"."+a] = base + p
	}
}

// compileFold plans the outward join from seed, whose rows have schema
// cols, over every needed table (tablesFor). Edges fold in sorted child
// order until no edge joins a new needed table: a join-down edge when its
// parent is folded, a join-up edge when its child is. ctx carries the
// seed's own compressed-column positions.
func (e *Engine) compileFold(seed string, cols ra.Schema, ctx detailCtx) (*foldPlan, error) {
	needed := e.tablesFor(seed)
	children := make([]string, 0, len(e.graph.EdgeTo))
	for c := range e.graph.EdgeTo {
		children = append(children, c)
	}
	sort.Strings(children)
	p := &foldPlan{needSets: e.UseNeedSets}
	cols = append(ra.Schema(nil), cols...)
	included := map[string]bool{seed: true}
	for progress := true; progress; {
		progress = false
		for _, child := range children {
			j := e.graph.EdgeTo[child]
			s := foldStep{cnt: -1}
			var table, from, fromAttr string
			switch {
			case included[j.Left] && !included[child] && needed[child]:
				s.down, s.attr = true, j.RightAttr
				table, from, fromAttr = child, j.Left, j.LeftAttr
			case included[child] && !included[j.Left] && needed[j.Left]:
				s.attr = j.LeftAttr
				table, from, fromAttr = j.Left, child, j.RightAttr
			default:
				continue
			}
			probe, err := cols.Index(from, fromAttr)
			if err != nil {
				return nil, err
			}
			at := e.aux[table]
			if at == nil {
				return nil, fmt.Errorf("maintain: join needs the omitted auxiliary view of %s", table)
			}
			s.at, s.probe, s.base = at, probe, len(cols)
			cols = append(cols, at.Cols()...)
			if s.residual, err = e.bindResidual(table, cols); err != nil {
				return nil, err
			}
			if !s.down {
				s.cnt = at.cntPos
				ctx.place(table, at, s.base)
			}
			p.steps = append(p.steps, s)
			included[table] = true
			progress = true
		}
	}
	for u := range needed {
		if !included[u] {
			return nil, fmt.Errorf("maintain: join could not reach needed table %s", u)
		}
	}
	ctx.rel = &ra.Relation{Cols: cols}
	p.ctx = ctx
	return p, nil
}

// bindResidual binds the view's residual local conditions on table over a
// joined schema (nil when the table has none).
func (e *Engine) bindResidual(table string, cols ra.Schema) (func(tuple.Tuple) (bool, error), error) {
	conds := e.residual[table]
	if len(conds) == 0 {
		return nil, nil
	}
	return ra.BindAll(conds, cols)
}

// deltaPlan returns (compiling on first use) the fold plan that joins a
// delta on t outward from t's base rows.
func (e *Engine) deltaPlan(t string) (*foldPlan, error) {
	if p := e.deltaPlans[t]; p != nil && p.needSets == e.UseNeedSets {
		return p, nil
	}
	p, err := e.compileFold(t, e.baseCols(t), newDetailCtx())
	if err != nil {
		return nil, err
	}
	e.deltaPlans[t] = p
	return p, nil
}

// foldSink consumes the joined rows of a fold walk with their signed
// weights. row is the walker's reused buffer: a sink that keeps it copies.
type foldSink interface {
	add(row tuple.Tuple, w int64) error
}

// foldWalker is one goroutine's walk scratch: the joined row under
// construction and one probe buffer per fold level. The engine owns one for
// its serial paths; the chunked delta join gives each worker its own.
type foldWalker struct {
	row    tuple.Tuple
	hits   [][]tuple.Tuple
	key    []byte
	probes int64 // index probes since the owner last drained the count
}

// walk joins one seed row of weight w outward through p, feeding every
// joined row to sink in the row order described above.
func (fw *foldWalker) walk(p *foldPlan, seed tuple.Tuple, w int64, sink foldSink) error {
	if n := p.width(); cap(fw.row) < n {
		fw.row = make(tuple.Tuple, n)
	} else {
		fw.row = fw.row[:n]
	}
	copy(fw.row, seed)
	for len(fw.hits) < len(p.steps) {
		fw.hits = append(fw.hits, nil)
	}
	return fw.fold(p, 0, w, sink)
}

// fold extends the partial row through levels level.. of p. Each level's
// probe results live in that level's buffer, which deeper levels never
// touch, so iterating them while descending is safe.
func (fw *foldWalker) fold(p *foldPlan, level int, w int64, sink foldSink) error {
	if level == len(p.steps) {
		return sink.add(fw.row, w)
	}
	s := &p.steps[level]
	fw.probes++
	fw.hits[level], fw.key = s.at.lookupInto(s.attr, fw.row[s.probe], fw.hits[level][:0], fw.key[:0])
	hits := fw.hits[level]
	if s.down && len(hits) > 1 {
		hits = hits[:1]
	}
	for _, m := range hits {
		copy(fw.row[s.base:], m)
		mw := w
		if s.cnt >= 0 {
			mw *= m[s.cnt].AsInt()
		}
		if s.residual != nil {
			ok, err := s.residual(fw.row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := fw.fold(p, level+1, mw, sink); err != nil {
			return err
		}
	}
	return nil
}

// detailRows is the collecting sink of the delta-detail join: it copies
// each joined row out of the walker's buffer.
type detailRows struct {
	rows    []tuple.Tuple
	weights []int64
}

func (d *detailRows) add(row tuple.Tuple, w int64) error {
	d.rows = append(d.rows, row.Clone())
	d.weights = append(d.weights, w)
	return nil
}

// walkSigned joins signed delta rows outward through p into out.
func (fw *foldWalker) walkSigned(p *foldPlan, signed []signedRow, out *detailRows) error {
	for _, sr := range signed {
		if err := fw.walk(p, sr.row, sr.s, out); err != nil {
			return err
		}
	}
	return nil
}

// scopedPlan is the compiled delta-scoped recomputation of one engine. The
// seed is a group-by attribute stored plain in its owner's auxiliary view:
// probing that view's index with the affected groups' seed values, keeping
// rows whose projection onto the view's own group-by columns (ownPos, at
// group-by value positions ownGb) matches an affected group, and folding
// them outward yields a superset of the affected groups' detail rows, which
// the accumulator narrows by exact group key. ok is false when the view's
// shape cannot seed the path: a global view, a group-by item that is not a
// plain column, or no group-by attribute stored plain in a seedable view.
type scopedPlan struct {
	ok       bool
	needSets bool
	seed     int // position of the seed attribute in the group-by values
	seedAux  *AuxTable
	seedAttr string
	ownPos   []int
	ownGb    []int
	residual func(tuple.Tuple) (bool, error) // the seed table's, over its aux schema
	fold     *foldPlan
	groups   *groupBinding // the view's aggregation over fold's joined schema
}

// scopedPlanFor returns (compiling on first use) the engine's scoped plan.
func (e *Engine) scopedPlanFor() (*scopedPlan, error) {
	if sp := e.scoped; sp != nil && sp.needSets == e.UseNeedSets {
		return sp, nil
	}
	sp, err := e.compileScoped()
	if err != nil {
		return nil, err
	}
	e.scoped = sp
	return sp, nil
}

func (e *Engine) compileScoped() (*scopedPlan, error) {
	sp := &scopedPlan{needSets: e.UseNeedSets}
	if len(e.mv.gbIdx) == 0 {
		return sp, nil
	}
	refs := make([]ra.ColRef, len(e.mv.gbIdx))
	for i, ci := range e.mv.gbIdx {
		cr, ok := e.mv.comps[ci].item.Expr.(ra.ColRef)
		if !ok {
			return sp, nil
		}
		refs[i] = cr
	}
	// A compressed non-root view cannot seed (its rows are groups, not
	// detail); in the minimal plans only the root compresses, so this guard
	// is defensive.
	sp.seed = -1
	for i, cr := range refs {
		at := e.aux[cr.Table]
		if at == nil || !contains(at.def.PlainAttrs, cr.Name) {
			continue
		}
		if cr.Table != e.graph.Root && at.cntPos >= 0 {
			continue
		}
		sp.seed, sp.seedAux, sp.seedAttr = i, at, cr.Name
		break
	}
	if sp.seed < 0 {
		return sp, nil
	}
	seedTable := refs[sp.seed].Table
	if err := sp.seedAux.EnsureIndex(sp.seedAttr); err != nil {
		return nil, err
	}
	for i, cr := range refs {
		if cr.Table != seedTable {
			continue
		}
		p, err := sp.seedAux.cols.Index(cr.Table, cr.Name)
		if err != nil {
			return sp, nil
		}
		sp.ownPos = append(sp.ownPos, p)
		sp.ownGb = append(sp.ownGb, i)
	}
	var err error
	if sp.residual, err = e.bindResidual(seedTable, sp.seedAux.Cols()); err != nil {
		return nil, err
	}
	// A compressed seed (the root) carries its own multiplicity columns.
	ctx := newDetailCtx()
	if seedTable == e.graph.Root {
		ctx.place(seedTable, sp.seedAux, 0)
	}
	if sp.fold, err = e.compileFold(seedTable, sp.seedAux.Cols(), ctx); err != nil {
		return nil, err
	}
	if sp.groups, err = e.bindGroups(sp.fold.ctx); err != nil {
		return nil, err
	}
	sp.ok = true
	return sp, nil
}

// scopedGroups recomputes the affected groups from the auxiliary views
// without joining the full tree: the seed view's matching rows are walked
// outward and streamed into a group accumulator, so cost is proportional to
// the touched groups and no joined row outlives its walk. The second result
// is false when the view's shape cannot seed the path; the caller then
// falls back to the full auxiliary join.
func (e *Engine) scopedGroups(keys groupSet) (map[string]tuple.Tuple, bool, error) {
	sp, err := e.scopedPlanFor()
	if err != nil || !sp.ok {
		return nil, false, err
	}
	allowed := make(map[string]bool, len(keys))
	probes := make(map[string]types.Value, len(keys))
	buf := e.keyBuf[:0]
	for _, vals := range keys {
		buf = buf[:0]
		for _, gi := range sp.ownGb {
			buf = types.Encode(buf, vals[gi])
		}
		allowed[string(buf)] = true
		buf = types.Encode(buf[:0], vals[sp.seed])
		if _, ok := probes[string(buf)]; !ok {
			probes[string(buf)] = vals[sp.seed]
		}
	}
	acc := e.newGroupAcc(sp.groups, keys)
	fw := &e.walker
	fw.probes = 0
	// Probe order is free: the seed is a group-by attribute, so each group's
	// rows all come from one probe, in its posting order.
	for _, v := range probes {
		fw.probes++
		for _, r := range e.auxLookup(sp.seedAux, sp.seedAttr, v) {
			buf = r.AppendKeyAt(buf[:0], sp.ownPos)
			if !allowed[string(buf)] {
				continue
			}
			if sp.residual != nil {
				ok, err := sp.residual(r)
				if err != nil {
					return nil, false, err
				}
				if !ok {
					continue
				}
			}
			if err := fw.walk(sp.fold, r, 1, acc); err != nil {
				return nil, false, err
			}
		}
	}
	e.keyBuf = buf[:0]
	e.stats.auxLookups.Add(fw.probes)
	groups, err := acc.finish()
	return groups, true, err
}
