package maintain

import (
	"fmt"
	"sort"

	"mindetail/internal/ra"
	"mindetail/internal/tuple"
)

// State is the serializable runtime state of an engine: the auxiliary
// table contents and the materialized view's component rows (including the
// hidden group count). Together with the view definition it is everything
// needed to resume maintenance after a restart — the sources are not part
// of it, by construction.
type State struct {
	// Aux maps base tables to their auxiliary relation contents.
	Aux map[string]*ra.Relation
	// MV holds the component-form rows of the maintained view; its columns
	// are positional (the component layout is determined by the view
	// definition) with the hidden count last.
	MV *ra.Relation
}

// MVArity returns the expected component-row width for the engine's view
// (components plus the hidden count).
func (e *Engine) MVArity() int { return len(e.mv.comps) + 1 }

// ExportState captures the engine's current state.
func (e *Engine) ExportState() *State {
	st := &State{Aux: make(map[string]*ra.Relation, len(e.aux))}
	for t, at := range e.aux {
		st.Aux[t] = at.Relation().Clone()
	}
	cols := make(ra.Schema, e.MVArity())
	for i := range cols {
		cols[i] = ra.Col{Name: fmt.Sprintf("c%d", i)}
	}
	mv := ra.NewRelation(cols)
	keys := make([]string, 0, len(e.mv.rows))
	for k := range e.mv.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mv.Rows = append(mv.Rows, e.mv.rows[k].Clone())
	}
	st.MV = mv
	return st
}

// ImportState replaces the engine's state with a previously exported one.
// The state must come from an engine over the same view definition; row
// widths are validated.
func (e *Engine) ImportState(st *State) error {
	for t, at := range e.aux {
		rel, ok := st.Aux[t]
		if !ok {
			return fmt.Errorf("maintain: state missing auxiliary view for %s", t)
		}
		if rel.Len() > 0 && len(rel.Rows[0]) != len(at.Cols()) {
			return fmt.Errorf("maintain: auxiliary state for %s has %d columns, want %d",
				t, len(rel.Rows[0]), len(at.Cols()))
		}
		cp := rel.Clone()
		cp.Cols = at.Cols()
		if err := at.Load(cp); err != nil {
			return err
		}
	}
	for t := range st.Aux {
		if e.aux[t] == nil {
			return fmt.Errorf("maintain: state has auxiliary view for %s which this plan omits", t)
		}
	}
	rows := make(map[string]tuple.Tuple, st.MV.Len())
	for _, row := range st.MV.Rows {
		if len(row) != e.MVArity() {
			return fmt.Errorf("maintain: view state row has %d components, want %d", len(row), e.MVArity())
		}
		r := row.Clone()
		rows[e.mv.keyOf(r)] = r
	}
	e.mv.replaceRows(rows)
	if e.mv.global() && len(rows) == 0 {
		e.mv.setRow(e.mv.blank(nil))
	}
	return nil
}
