package maintain

import (
	"fmt"
	"sort"
	"sync"

	"mindetail/internal/core"
	"mindetail/internal/faultinject"
	"mindetail/internal/ra"
	"mindetail/internal/tuple"
	"mindetail/internal/types"
)

// AuxTable is the mutable, warehouse-resident materialization of one
// auxiliary view. Rows are keyed by the plain (grouping) attributes; for a
// compressed view the SUM and COUNT columns are adjusted in place and a
// group is dropped when its count returns to zero — the auxiliary views are
// themselves self-maintainable GPSJ views with CSMAS-only aggregates.
type AuxTable struct {
	def  *core.AuxView
	cols ra.Schema

	plainPos []int          // column positions of the plain attributes
	sumPos   map[string]int // base attribute -> SUM column position
	minPos   map[string]int // base attribute -> MIN column position (append-only)
	maxPos   map[string]int // base attribute -> MAX column position (append-only)
	cntPos   int            // COUNT(*) column position, -1 when absent

	// store holds the group rows keyed by encoded plain attributes. The
	// default is the in-memory map backend; SetStore swaps in an
	// out-of-core backend (internal/pager) per view.
	store AuxStore
	idx   map[string]map[string][]string // attr -> value key -> row keys

	// idxPos caches the column position of each indexed attribute, so
	// per-row index maintenance needs no schema scan.
	idxPos map[string]int

	// probeBuf and lookupBuf are scratch buffers for index probes: value
	// keys are encoded into probeBuf (no-allocation map lookups) and
	// Lookup results are assembled in lookupBuf, which is reused by the
	// next call. AuxTable is not safe for concurrent use.
	probeBuf  []byte
	lookupBuf []tuple.Tuple

	// jnl, when non-nil, receives the prior image of every group Adjust
	// mutates (set by the owning engine or shared coordinator); fi is the
	// fault-injection hook (nil in production).
	jnl *journal
	fi  *faultinject.Hook

	// readErr records the first store read failure seen by Lookup and its
	// buffer-reuse variants, which have no error return of their own. A
	// failed read during staging would otherwise silently drop rows from a
	// scoped recomputation; the engine drains this after applying a delta
	// and rolls back if a read failed. Guarded by a mutex because the
	// sharded apply path probes child tables from concurrent workers.
	readErrMu sync.Mutex
	readErr   error
}

// noteReadErr records err as the table's pending read failure (first one
// wins). Safe for concurrent use.
func (t *AuxTable) noteReadErr(err error) {
	if err == nil {
		return
	}
	t.readErrMu.Lock()
	if t.readErr == nil {
		t.readErr = err
	}
	t.readErrMu.Unlock()
}

// takeReadErr returns and clears the pending read failure, if any.
func (t *AuxTable) takeReadErr() error {
	t.readErrMu.Lock()
	err := t.readErr
	t.readErr = nil
	t.readErrMu.Unlock()
	return err
}

// NewAuxTable creates an empty table for the auxiliary view definition. A
// definition whose aggregate columns are missing from its own schema (which
// can only mean a corrupted or hand-built definition) surfaces as a
// returned error, never a panic.
func NewAuxTable(def *core.AuxView) (*AuxTable, error) {
	t := &AuxTable{
		def:    def,
		cols:   def.Schema(),
		sumPos: make(map[string]int),
		minPos: make(map[string]int),
		maxPos: make(map[string]int),
		cntPos: -1,
		store:  newMemStore(),
		idx:    make(map[string]map[string][]string),
		idxPos: make(map[string]int),
	}
	for i := range def.PlainAttrs {
		t.plainPos = append(t.plainPos, i)
	}
	for _, a := range def.SumAttrs {
		i, err := t.cols.Index(def.Base, def.SumName[a])
		if err != nil {
			return nil, fmt.Errorf("maintain: aux view for %s: SUM(%s) column: %w", def.Base, a, err)
		}
		t.sumPos[a] = i
	}
	for _, a := range def.MinAttrs {
		i, err := t.cols.Index(def.Base, def.MinName[a])
		if err != nil {
			return nil, fmt.Errorf("maintain: aux view for %s: MIN(%s) column: %w", def.Base, a, err)
		}
		t.minPos[a] = i
	}
	for _, a := range def.MaxAttrs {
		i, err := t.cols.Index(def.Base, def.MaxName[a])
		if err != nil {
			return nil, fmt.Errorf("maintain: aux view for %s: MAX(%s) column: %w", def.Base, a, err)
		}
		t.maxPos[a] = i
	}
	if def.HasCount {
		i, err := t.cols.Index(def.Base, def.CountName)
		if err != nil {
			return nil, fmt.Errorf("maintain: aux view for %s: COUNT column: %w", def.Base, err)
		}
		t.cntPos = i
	}
	return t, nil
}

// Def returns the auxiliary view definition.
func (t *AuxTable) Def() *core.AuxView { return t.def }

// Cols returns the table's schema (columns qualified with the base table).
func (t *AuxTable) Cols() ra.Schema { return t.cols }

// Len returns the number of rows (groups).
func (t *AuxTable) Len() int { return t.store.Len() }

// Bytes returns the byte-accounting size of the rows.
func (t *AuxTable) Bytes() int { return t.store.Bytes() }

// Store returns the table's row store.
func (t *AuxTable) Store() AuxStore { return t.store }

// SetStore migrates the table's rows into a replacement store and adopts
// it. The previous store is closed. Typically called right after engine
// construction (empty table, nothing to migrate), but a populated table
// moves too.
func (t *AuxTable) SetStore(s AuxStore) error {
	if err := s.Clear(t.store.Len()); err != nil {
		return err
	}
	// Migrate in sorted key order: a group's rows share their encoded
	// plain-attribute prefix, so sorting lands each group on adjacent heap
	// pages. The scoped maintenance path reads whole groups; on a paged
	// store that locality turns one group read into a few page fetches
	// instead of one per row.
	type kv struct {
		k string
		r tuple.Tuple
	}
	rows := make([]kv, 0, t.store.Len())
	err := t.store.Scan(func(k string, r tuple.Tuple) error {
		rows = append(rows, kv{k, r})
		return nil
	})
	if err != nil {
		return err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].k < rows[j].k })
	for _, e := range rows {
		if err := s.PutString(e.k, e.r); err != nil {
			return err
		}
	}
	old := t.store
	t.store = s
	return old.Close()
}

// EnsureIndex builds a hash index on the named plain attribute.
//
// Posting order is a function of the table's contents, never of how the
// store happens to iterate: a lookup's rows reach a recomputed float SUM in
// posting order, so an order taken from a Go map would change low bits from
// run to run. Lists built here over existing rows are sorted by row key;
// Load builds them in its input's row order; afterwards Adjust appends new
// rows and removes dead ones, a deterministic function of the delta stream.
func (t *AuxTable) EnsureIndex(attr string) error {
	if _, ok := t.idx[attr]; ok {
		return nil
	}
	pos, err := t.cols.Index(t.def.Base, attr)
	if err != nil {
		return fmt.Errorf("maintain: %s: cannot index %s: %w", t.def.Name, attr, err)
	}
	m := make(map[string][]string)
	var buf []byte
	err = t.store.Scan(func(k string, r tuple.Tuple) error {
		buf = types.Encode(buf[:0], r[pos])
		m[string(buf)] = append(m[string(buf)], k)
		return nil
	})
	if err != nil {
		return err
	}
	for _, list := range m {
		sort.Strings(list)
	}
	t.idx[attr] = m
	t.idxPos[attr] = pos
	return nil
}

func (t *AuxTable) indexAdd(row tuple.Tuple, key string) {
	for attr, m := range t.idx {
		t.probeBuf = types.Encode(t.probeBuf[:0], row[t.idxPos[attr]])
		m[string(t.probeBuf)] = append(m[string(t.probeBuf)], key)
	}
}

func (t *AuxTable) indexRemove(row tuple.Tuple, key string) {
	for attr, m := range t.idx {
		t.probeBuf = types.Encode(t.probeBuf[:0], row[t.idxPos[attr]])
		list := m[string(t.probeBuf)]
		for i, k := range list {
			if k == key {
				list[i] = list[len(list)-1]
				list = list[:len(list)-1]
				break
			}
		}
		if len(list) == 0 {
			delete(m, string(t.probeBuf))
		} else {
			m[string(t.probeBuf)] = list
		}
	}
}

// Load replaces the contents with a materialized relation (from
// core.Plan.Materialize). Existing indexes are rebuilt, their posting lists
// in rel's row order (see EnsureIndex).
func (t *AuxTable) Load(rel *ra.Relation) error {
	if err := t.store.Clear(rel.Len()); err != nil {
		return err
	}
	keys := make([]string, len(rel.Rows))
	for i, row := range rel.Rows {
		key := row.KeyAt(t.plainPos)
		if _, dup, err := t.store.GetString(key); err != nil {
			return err
		} else if dup {
			return fmt.Errorf("maintain: %s: duplicate group %v", t.def.Name, row)
		}
		r := row
		if t.store.InPlace() {
			r = row.Clone()
		}
		if err := t.store.PutString(key, r); err != nil {
			return err
		}
		keys[i] = key
	}
	var buf []byte
	for attr := range t.idx {
		pos := t.idxPos[attr]
		m := make(map[string][]string)
		for i, row := range rel.Rows {
			buf = types.Encode(buf[:0], row[pos])
			m[string(buf)] = append(m[string(buf)], keys[i])
		}
		t.idx[attr] = m
	}
	return nil
}

// Lookup returns the rows whose plain attribute equals v, using an index
// when available. The returned slice is a scratch buffer owned by the
// table and is only valid until the next Lookup call; the tuples in it
// must not be mutated.
func (t *AuxTable) Lookup(attr string, v types.Value) []tuple.Tuple {
	if m, ok := t.idx[attr]; ok {
		t.probeBuf = types.Encode(t.probeBuf[:0], v)
		keys := m[string(t.probeBuf)]
		out := t.lookupBuf[:0]
		for _, k := range keys {
			r, ok, err := t.store.GetString(k)
			if err != nil {
				t.noteReadErr(err)
			} else if ok {
				out = append(out, r)
			}
		}
		t.lookupBuf = out
		return out
	}
	return t.scanInto(attr, v, nil)
}

// lookupInto is Lookup with caller-owned scratch: the probe key is encoded
// into keyBuf and the matching rows are appended to out; both are returned
// for reuse. Unlike Lookup it performs no writes to table state, so
// concurrent calls with distinct buffers against a quiescent table are safe
// — the property the parallel staged-apply scheduler relies on when several
// engines of one shared class read the same tables. The returned tuples are
// the stored rows and must not be mutated.
func (t *AuxTable) lookupInto(attr string, v types.Value, out []tuple.Tuple, keyBuf []byte) ([]tuple.Tuple, []byte) {
	if m, ok := t.idx[attr]; ok {
		keyBuf = types.Encode(keyBuf, v)
		for _, k := range m[string(keyBuf)] {
			r, ok, err := t.store.GetString(k)
			if err != nil {
				t.noteReadErr(err)
			} else if ok {
				out = append(out, r)
			}
		}
		return out, keyBuf
	}
	return t.scanInto(attr, v, out), keyBuf
}

// scanInto is the index-less lookup: a full scan appending the rows whose
// attr equals v to out. It is a function of its own because the scan
// closure captures v and out, which would otherwise move to the heap on
// every call of the indexed fast path too.
func (t *AuxTable) scanInto(attr string, v types.Value, out []tuple.Tuple) []tuple.Tuple {
	pos, err := t.cols.Index(t.def.Base, attr)
	if err != nil {
		return out
	}
	t.noteReadErr(t.store.Scan(func(_ string, r tuple.Tuple) error {
		if types.Identical(r[pos], v) {
			out = append(out, r)
		}
		return nil
	}))
	return out
}

// containsWith is Contains with a caller-owned key buffer (read-only on
// table state, like lookupInto).
func (t *AuxTable) containsWith(attr string, v types.Value, keyBuf []byte) (bool, []byte) {
	if m, ok := t.idx[attr]; ok {
		keyBuf = types.Encode(keyBuf, v)
		return len(m[string(keyBuf)]) > 0, keyBuf
	}
	var rows []tuple.Tuple
	rows, keyBuf = t.lookupInto(attr, v, nil, keyBuf)
	return len(rows) > 0, keyBuf
}

// Contains reports whether some row has the given value in attr — the
// semijoin membership test. With an index it is a single map probe.
func (t *AuxTable) Contains(attr string, v types.Value) bool {
	if m, ok := t.idx[attr]; ok {
		t.probeBuf = types.Encode(t.probeBuf[:0], v)
		return len(m[string(t.probeBuf)]) > 0
	}
	return len(t.Lookup(attr, v)) > 0
}

// Adjust applies one signed base-row contribution to the table: plainVals
// are the values of the plain attributes, sumDeltas the per-attribute
// value contributions (already signed), extrema the raw values feeding
// append-only MIN/MAX columns (nil outside the append-only relaxation),
// and dCnt is ±1. For a PSJ view this inserts or deletes the row; for a
// compressed view it adjusts the group's aggregates, creating and dropping
// groups as counts move through zero.
func (t *AuxTable) Adjust(plainVals tuple.Tuple, sumDeltas map[string]types.Value, extrema map[string]types.Value, dCnt int64) error {
	// The group key is encoded into the probe scratch buffer; a key string
	// is materialized only when a row is inserted or removed. indexAdd and
	// indexRemove clobber probeBuf, so every branch that calls them first
	// captures the key — the in-place adjust path allocates nothing beyond
	// the undo-journal entry.
	t.probeBuf = plainVals.AppendKey(t.probeBuf[:0])
	if err := t.fi.Fire(faultinject.AuxAdjustStart); err != nil {
		return err
	}
	if err := t.jnl.noteAux(t, t.probeBuf); err != nil {
		return err
	}
	row, ok, err := t.store.Get(t.probeBuf)
	if err != nil {
		return err
	}
	if !ok {
		row = nil
	}
	out, err := t.adjustCore(row, plainVals, sumDeltas, extrema, dCnt)
	if err != nil {
		return err
	}
	switch {
	case row == nil && out != nil:
		key := string(t.probeBuf)
		if err := t.store.PutString(key, out); err != nil {
			return err
		}
		t.indexAdd(out, key)
	case row != nil && out == nil:
		key := string(t.probeBuf)
		t.indexRemove(row, key)
		if err := t.store.DeleteString(key); err != nil {
			return err
		}
	case row != nil && out != nil && !t.store.InPlace():
		// A copy-out store does not see the in-place mutation of the
		// decoded image; write the adjusted row back under the same key.
		if err := t.store.Put(t.probeBuf, out); err != nil {
			return err
		}
	}
	// For an in-place store, row != nil && out != nil needs nothing: out
	// IS the stored row, adjusted in place.
	return nil
}

// adjustCore applies one signed contribution to a group image without
// touching the table's row map or indexes: row is the current image (nil =
// absent group) and the result is the image afterwards (nil = PSJ removal
// or group death). Existing compressed rows are mutated in place; fresh
// groups allocate. The caller reconciles storage — map, indexes, undo
// journal. Shared by the serial Adjust path and the sharded overlay
// pipeline, so both apply bit-identical arithmetic.
func (t *AuxTable) adjustCore(row tuple.Tuple, plainVals tuple.Tuple, sumDeltas map[string]types.Value, extrema map[string]types.Value, dCnt int64) (tuple.Tuple, error) {
	if t.def.IsPSJ {
		switch {
		case dCnt == 1 && row == nil:
			return plainVals.Clone(), nil
		case dCnt == -1 && row != nil:
			return nil, nil
		default:
			return nil, fmt.Errorf("maintain: %s: inconsistent PSJ adjustment (dCnt=%d, exists=%v) for %v",
				t.def.Name, dCnt, row != nil, plainVals)
		}
	}

	if (len(t.minPos) > 0 || len(t.maxPos) > 0) && dCnt < 0 {
		return nil, fmt.Errorf("maintain: %s: deletion reached an append-only auxiliary view", t.def.Name)
	}
	if row == nil {
		if dCnt <= 0 {
			return nil, fmt.Errorf("maintain: %s: negative adjustment to missing group %v", t.def.Name, plainVals)
		}
		row = make(tuple.Tuple, len(t.cols))
		for i, p := range t.plainPos {
			row[p] = plainVals[i]
		}
		for _, p := range t.sumPos {
			row[p] = types.Null
		}
		for _, p := range t.minPos {
			row[p] = types.Null
		}
		for _, p := range t.maxPos {
			row[p] = types.Null
		}
		row[t.cntPos] = types.Int(0)
	}
	for attr, d := range sumDeltas {
		p, ok := t.sumPos[attr]
		if !ok {
			return row, fmt.Errorf("maintain: %s: no SUM column for %s", t.def.Name, attr)
		}
		if row[p].IsNull() {
			row[p] = d
		} else {
			s, err := types.Add(row[p], d)
			if err != nil {
				return row, err
			}
			row[p] = s
		}
	}
	for a, v := range extrema {
		if p, ok := t.minPos[a]; ok {
			if row[p].IsNull() || types.Compare(v, row[p]) < 0 {
				row[p] = v
			}
		}
		if p, ok := t.maxPos[a]; ok {
			if row[p].IsNull() || types.Compare(v, row[p]) > 0 {
				row[p] = v
			}
		}
	}
	if err := t.fi.Fire(faultinject.AuxAdjustMid); err != nil {
		// Mid-operation failure: sums/extrema are already applied but the
		// count is not — exactly the torn state the undo journal repairs.
		return row, err
	}
	cnt := row[t.cntPos].AsInt() + dCnt
	if cnt < 0 {
		return row, fmt.Errorf("maintain: %s: group %v count went negative", t.def.Name, plainVals)
	}
	row[t.cntPos] = types.Int(cnt)
	if cnt == 0 {
		return nil, nil
	}
	return row, nil
}

// CheckIndexes verifies every hash index against a from-scratch rebuild:
// each stored row must appear exactly once under its value bucket, and no
// stale or duplicate entries may remain. It is the index-integrity oracle
// of the fault-injection harness (rollback must leave indexes coherent).
func (t *AuxTable) CheckIndexes() error {
	for attr, m := range t.idx {
		pos := t.idxPos[attr]
		want := make(map[string]map[string]bool, len(m))
		err := t.store.Scan(func(k string, r tuple.Tuple) error {
			vk := string(types.Encode(nil, r[pos]))
			if want[vk] == nil {
				want[vk] = make(map[string]bool)
			}
			want[vk][k] = true
			return nil
		})
		if err != nil {
			return err
		}
		for vk, list := range m {
			if len(list) == 0 {
				return fmt.Errorf("maintain: %s: index %s has an empty bucket", t.def.Name, attr)
			}
			seen := make(map[string]bool, len(list))
			for _, k := range list {
				if seen[k] {
					return fmt.Errorf("maintain: %s: index %s lists row %q twice", t.def.Name, attr, k)
				}
				seen[k] = true
				if !want[vk][k] {
					return fmt.Errorf("maintain: %s: index %s has a stale entry for row %q", t.def.Name, attr, k)
				}
			}
			if len(seen) != len(want[vk]) {
				return fmt.Errorf("maintain: %s: index %s bucket is missing %d row(s)", t.def.Name, attr, len(want[vk])-len(seen))
			}
		}
		for vk, rows := range want {
			if len(rows) > 0 && len(m[vk]) == 0 {
				return fmt.Errorf("maintain: %s: index %s is missing a bucket for %d row(s)", t.def.Name, attr, len(rows))
			}
		}
	}
	return nil
}

// Relation returns a snapshot of the current contents.
func (t *AuxTable) Relation() *ra.Relation {
	out := ra.NewRelation(t.cols)
	t.noteReadErr(t.store.Scan(func(_ string, r tuple.Tuple) error {
		out.Rows = append(out.Rows, r)
		return nil
	}))
	return out
}
