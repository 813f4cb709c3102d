// Package maintain implements self-maintenance of a materialized GPSJ view
// from its minimal auxiliary views, without any access to the base tables
// (paper Sections 2.2 and 3.2).
//
// The materialized view is kept in a *component form* that follows the
// Table 2 replacement rules: every CSMAS aggregate is stored as its
// distributive components (SUM and/or COUNT), every non-CSMAS aggregate
// (MIN/MAX, DISTINCT) as a stored value that is repaired by partial
// recomputation from the auxiliary views, plus a hidden per-group COUNT(*)
// that detects group death. The user-facing contents are rendered from it
// (AVG = SUM/COUNT) and published incrementally: see Published.
package maintain

import (
	"fmt"
	"sort"
	"sync"

	"mindetail/internal/aggregates"
	"mindetail/internal/gpsj"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// compKind enumerates the component kinds of the maintenance form.
type compKind int

const (
	compGroupBy compKind = iota // a group-by column
	compCount                   // COUNT(*) or COUNT(a): a row count
	compSum                     // a running SUM(a)
	compStored                  // a non-CSMAS value repaired by recomputation
)

// component describes one column of the maintenance form.
type component struct {
	kind compKind
	item ra.ProjItem // the view item this component belongs to
	arg  ra.ColRef   // aggregate argument (compSum, compStored with arg)
}

// MaterializedView is the maintained state of V in component form.
type MaterializedView struct {
	view *gpsj.View

	// comps lists the maintenance-form columns: group-by columns first (in
	// item order interleaved as in the view), then per-aggregate
	// components. itemComps[i] gives the component indexes of view item i.
	comps     []component
	itemComps [][]int
	gbIdx     []int // component indexes that are group-by columns

	// hasNonCSMAS reports whether any stored (non-CSMAS) component exists;
	// minMaxOnly additionally reports that all of them are plain MIN/MAX.
	hasNonCSMAS bool
	minMaxOnly  bool

	// rows maps the encoded group-by key to the component tuple, with one
	// extra trailing value: the hidden group COUNT(*). It is written only
	// through put, drop and replaceRows (plus in-place edits of a row just
	// marked dirty), so every write reaches the dirty set below.
	rows map[string]tuple.Tuple

	// The published snapshot and the writes since it. pub holds the
	// rendered rows in sorted key order (pubKeys in step); neither the
	// relation, its row slice nor its tuples are written after publication,
	// so a published relation stays valid forever. dirty holds the keys
	// written since pub was built; stale means there is no usable pub (never
	// published, or rows replaced wholesale) and dirty is not tracked. The
	// writers run exclusively; pubMu serializes concurrent publishers.
	pubMu   sync.Mutex
	cols    ra.Schema
	pub     *ra.Relation
	pubKeys []string
	dirty   map[string]struct{}
	stale   bool
}

// NewMaterializedView builds an empty maintenance form for the view.
func NewMaterializedView(v *gpsj.View) *MaterializedView {
	mv := &MaterializedView{view: v, rows: make(map[string]tuple.Tuple),
		dirty: make(map[string]struct{}), stale: true}
	mv.cols = make(ra.Schema, len(v.Items))
	for i, it := range v.Items {
		mv.cols[i] = ra.Col{Name: it.Name}
	}
	mv.minMaxOnly = true
	for _, it := range v.Items {
		var idxs []int
		add := func(c component) {
			idxs = append(idxs, len(mv.comps))
			mv.comps = append(mv.comps, c)
		}
		if !it.IsAggregate() {
			add(component{kind: compGroupBy, item: it})
			mv.gbIdx = append(mv.gbIdx, idxs[0])
		} else {
			agg := it.Agg
			switch {
			case !aggregates.IsCSMAS(agg):
				c := component{kind: compStored, item: it}
				if agg.Arg != nil {
					c.arg = agg.Arg.(ra.ColRef)
				}
				add(c)
				mv.hasNonCSMAS = true
				if agg.Distinct || (agg.Func != ra.FuncMin && agg.Func != ra.FuncMax) {
					mv.minMaxOnly = false
				}
			case agg.Func == ra.FuncCount:
				add(component{kind: compCount, item: it})
			case agg.Func == ra.FuncSum:
				add(component{kind: compSum, item: it, arg: agg.Arg.(ra.ColRef)})
			case agg.Func == ra.FuncAvg:
				add(component{kind: compSum, item: it, arg: agg.Arg.(ra.ColRef)})
				add(component{kind: compCount, item: it})
			default:
				panic(fmt.Sprintf("maintain: unexpected aggregate %s", agg))
			}
		}
		mv.itemComps = append(mv.itemComps, idxs)
	}
	return mv
}

// View returns the view definition.
func (mv *MaterializedView) View() *gpsj.View { return mv.view }

// Groups returns the number of materialized groups.
func (mv *MaterializedView) Groups() int { return len(mv.rows) }

// hiddenIdx is the position of the hidden group count inside a stored row.
func (mv *MaterializedView) hiddenIdx() int { return len(mv.comps) }

// keyOf extracts the encoded group key from a component tuple.
func (mv *MaterializedView) keyOf(row tuple.Tuple) string {
	return row.KeyAt(mv.gbIdx)
}

// global reports whether the view has no group-by attributes (a single
// global aggregation group, which exists even over an empty input).
func (mv *MaterializedView) global() bool { return len(mv.gbIdx) == 0 }

// markDirty records that the group under key was written since the last
// publication. The lookup-first form keeps string(key) allocation-free when
// the key is already dirty.
func (mv *MaterializedView) markDirty(key []byte) {
	if mv.stale {
		return
	}
	if _, ok := mv.dirty[string(key)]; !ok {
		mv.dirty[string(key)] = struct{}{}
	}
}

// markDirtyKey is markDirty for a key already materialized as a string.
func (mv *MaterializedView) markDirtyKey(key string) {
	if !mv.stale {
		mv.dirty[key] = struct{}{}
	}
}

// put installs row under key.
func (mv *MaterializedView) put(key string, row tuple.Tuple) {
	mv.markDirtyKey(key)
	mv.rows[key] = row
}

// drop removes the group under key.
func (mv *MaterializedView) drop(key string) {
	mv.markDirtyKey(key)
	delete(mv.rows, key)
}

// replaceRows installs a whole new row map; the next publication renders
// every group.
func (mv *MaterializedView) replaceRows(rows map[string]tuple.Tuple) {
	mv.rows = rows
	mv.stale = true
	clear(mv.dirty)
}

// blank returns a fresh component tuple for a new group with the given
// group-by values at the group-by positions.
func (mv *MaterializedView) blank(gbVals []types.Value) tuple.Tuple {
	row := make(tuple.Tuple, len(mv.comps)+1)
	for i := range row {
		row[i] = types.Null
	}
	for i, gi := range mv.gbIdx {
		row[gi] = gbVals[i]
	}
	for ci, c := range mv.comps {
		// COUNT and COUNT(DISTINCT) of no rows are 0, not NULL.
		if c.kind == compCount || (c.kind == compStored && c.item.Agg.Func == ra.FuncCount) {
			row[ci] = types.Int(0)
		}
	}
	row[mv.hiddenIdx()] = types.Int(0)
	return row
}

// adjust applies a signed weighted contribution to a group's CSMAS
// components and the hidden count: dCnt row-count units, and per-sum-
// component value deltas. It creates the group when absent and removes it
// when the hidden count returns to zero (unless the view is global).
func (mv *MaterializedView) adjust(gbVals []types.Value, dCnt int64, sumDeltas map[int]types.Value) error {
	return mv.adjustBuf(tuple.Tuple(gbVals).AppendKey(nil), gbVals, dCnt, sumDeltas)
}

// adjustBuf is adjust with the group key pre-encoded into a caller-owned
// scratch buffer: lookups and deletes use string(key) conversions the
// runtime elides, so the hot adjustment loop allocates a key string only
// when a new group is created.
func (mv *MaterializedView) adjustBuf(key []byte, gbVals []types.Value, dCnt int64, sumDeltas map[int]types.Value) error {
	row := mv.rows[string(key)]
	existed := row != nil
	mv.markDirty(key)
	out, err := mv.adjustRowCore(row, gbVals, dCnt, sumDeltas)
	if err != nil {
		return err
	}
	switch {
	case out == nil && existed:
		delete(mv.rows, string(key))
	case out != nil && !existed:
		mv.rows[string(key)] = out
	}
	// existed && out != nil: out is row, adjusted in place.
	return nil
}

// adjustRowCore applies one weighted contribution to a component row image
// without touching the view's row map: row is the current image (nil =
// absent; a blank group is created) and the result is the image afterwards
// (nil = group death, never produced for a global view). Existing rows are
// mutated in place. The caller reconciles the map — adjustBuf for the
// serial path, the sharded overlay pipeline for parallel applies — so both
// accumulate each group's components in bit-identical order.
func (mv *MaterializedView) adjustRowCore(row tuple.Tuple, gbVals []types.Value, dCnt int64, sumDeltas map[int]types.Value) (tuple.Tuple, error) {
	if row == nil {
		row = mv.blank(gbVals)
	}
	for ci, c := range mv.comps {
		switch c.kind {
		case compCount:
			row[ci] = types.Int(row[ci].AsInt() + dCnt)
		case compSum:
			d, ok := sumDeltas[ci]
			if !ok {
				continue
			}
			if row[ci].IsNull() {
				row[ci] = d
			} else {
				s, err := types.Add(row[ci], d)
				if err != nil {
					return row, err
				}
				row[ci] = s
			}
		}
	}
	h := mv.hiddenIdx()
	row[h] = types.Int(row[h].AsInt() + dCnt)
	if row[h].AsInt() == 0 && !mv.global() {
		return nil, nil
	} else if row[h].AsInt() < 0 {
		return row, fmt.Errorf("maintain: group %v count went negative (inconsistent delta stream)", gbVals)
	}
	return row, nil
}

// raiseExtrema updates stored MIN/MAX components with a candidate value —
// the insertion-only SMA fast path of Table 1.
func (mv *MaterializedView) raiseExtrema(gbVals []types.Value, ci int, v types.Value) {
	mv.raiseExtremaBuf(tuple.Tuple(gbVals).AppendKey(nil), ci, v)
}

// raiseExtremaBuf is raiseExtrema with a pre-encoded group key (no
// allocation on lookup).
func (mv *MaterializedView) raiseExtremaBuf(key []byte, ci int, v types.Value) {
	row, ok := mv.rows[string(key)]
	if !ok {
		// adjust creates groups; raiseExtrema is called after it.
		return
	}
	mv.markDirty(key)
	mv.raiseRow(row, ci, v)
}

// raiseRow is the row-image form of raiseExtremaBuf, shared with the
// sharded overlay pipeline (which raises extrema on overlay copies before
// they are installed).
func (mv *MaterializedView) raiseRow(row tuple.Tuple, ci int, v types.Value) {
	c := mv.comps[ci]
	cur := row[ci]
	switch {
	case cur.IsNull():
		row[ci] = v
	case c.item.Agg.Func == ra.FuncMin && types.Compare(v, cur) < 0:
		row[ci] = v
	case c.item.Agg.Func == ra.FuncMax && types.Compare(v, cur) > 0:
		row[ci] = v
	}
}

// deleteGroups removes the groups with the given encoded keys.
func (mv *MaterializedView) deleteGroups(keys groupSet) {
	for k := range keys {
		if mv.global() {
			// A global group is never removed; it is overwritten by the
			// recomputation that follows.
			continue
		}
		mv.drop(k)
	}
}

// setRow installs a complete component row (from recomputation).
func (mv *MaterializedView) setRow(row tuple.Tuple) {
	mv.put(mv.keyOf(row), row)
}

// Published returns the user-facing contents of the view, one output
// column per view item, in encoded-group-key order. The relation is shared
// and immutable: callers must not modify it (Snapshot returns a private
// copy).
//
// Publication is incremental. Only the keys written since the previous
// publication are sorted; each is binary-searched into the previous key
// slice, and a new row slice is merged from the clean rows' existing
// tuples and fresh renders of the dirty groups that still exist. After a
// wholesale replacement every key counts as dirty against an empty
// previous snapshot, which is the full sort-and-render.
func (mv *MaterializedView) Published() *ra.Relation {
	mv.pubMu.Lock()
	defer mv.pubMu.Unlock()
	if !mv.stale && len(mv.dirty) == 0 {
		return mv.pub
	}
	var prevKeys []string
	var prevRows []tuple.Tuple
	var dirty []string
	if mv.stale {
		dirty = make([]string, 0, len(mv.rows))
		for k := range mv.rows {
			dirty = append(dirty, k)
		}
	} else {
		prevKeys, prevRows = mv.pubKeys, mv.pub.Rows
		dirty = make([]string, 0, len(mv.dirty))
		for k := range mv.dirty {
			dirty = append(dirty, k)
		}
	}
	sort.Strings(dirty)
	// The merged snapshot has exactly the current groups.
	keys := make([]string, 0, len(mv.rows))
	rows := make([]tuple.Tuple, 0, len(mv.rows))
	i := 0
	for _, k := range dirty {
		j := i + sort.SearchStrings(prevKeys[i:], k)
		keys = append(keys, prevKeys[i:j]...)
		rows = append(rows, prevRows[i:j]...)
		i = j
		if i < len(prevKeys) && prevKeys[i] == k {
			i++ // superseded or dropped
		}
		if row, ok := mv.rows[k]; ok {
			keys = append(keys, k)
			rows = append(rows, mv.render(row))
		}
	}
	keys = append(keys, prevKeys[i:]...)
	rows = append(rows, prevRows[i:]...)
	mv.pub = &ra.Relation{Cols: mv.cols, Rows: rows}
	mv.pubKeys = keys
	mv.stale = false
	clear(mv.dirty)
	return mv.pub
}

// Snapshot returns a private, mutable copy of the published contents (see
// Published): its schema, row slice and tuples are all fresh.
func (mv *MaterializedView) Snapshot() *ra.Relation {
	pub := mv.Published()
	out := &ra.Relation{Cols: append(ra.Schema(nil), pub.Cols...),
		Rows: make([]tuple.Tuple, len(pub.Rows))}
	w := len(pub.Cols)
	slab := make(tuple.Tuple, len(pub.Rows)*w)
	for i, row := range pub.Rows {
		out.Rows[i] = slab[i*w : (i+1)*w : (i+1)*w]
		copy(out.Rows[i], row)
	}
	return out
}

// render produces one group's user-facing tuple from its component row:
// COUNT from its counter, SUM from its running sum, AVG = SUM/COUNT, stored
// values directly. An empty SUM/AVG group (possible only for global views)
// yields NULL, matching SQL.
func (mv *MaterializedView) render(row tuple.Tuple) tuple.Tuple {
	orow := make(tuple.Tuple, len(mv.view.Items))
	for i, it := range mv.view.Items {
		idxs := mv.itemComps[i]
		switch {
		case !it.IsAggregate():
			orow[i] = row[idxs[0]]
		case it.Agg.Func == ra.FuncAvg && aggregates.IsCSMAS(it.Agg):
			sum, cnt := row[idxs[0]], row[idxs[1]]
			if sum.IsNull() || cnt.AsInt() == 0 {
				orow[i] = types.Null
			} else {
				orow[i] = types.Float(sum.AsFloat() / float64(cnt.AsInt()))
			}
		case it.Agg.Func != ra.FuncCount && row[mv.hiddenIdx()].AsInt() == 0:
			// An empty (global) group: SUM/AVG/MIN/MAX are NULL.
			orow[i] = types.Null
		default:
			orow[i] = row[idxs[0]]
		}
	}
	return orow
}

// Bytes returns the byte-accounting size of the maintenance form.
func (mv *MaterializedView) Bytes() int {
	n := 0
	for _, row := range mv.rows {
		n += row.EncodedSize()
	}
	return n
}
